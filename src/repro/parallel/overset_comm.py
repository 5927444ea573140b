"""Distributed Yin<->Yang overset interpolation (paper Section IV).

"Communication between two groups (Yin and Yang) is required for the
overset interpolation.  This communication is implemented by MPI_SEND
and MPI_IRECV under [the world communicator]."

Every receptor ring point of one panel needs the four corners of its
donor cell from the *other* panel group.  The communication plan —
which donor rank sends which columns to which receptor rank — depends
only on grid geometry and decomposition, so it is built once, on every
rank identically (deterministic).  Each
:meth:`OversetExchanger.exchange_state` sends every donor->receptor
pair a single ``(nfields, nr, m)`` buffer holding *all* prognostic
fields of a state, followed by the weighted combine (and, for the two
vector triples, the basis rotation) on the receptor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.checkers.contracts import contract
from repro.checkers.hotpath import hot_path
from repro.checkers.shapes import Float64
from repro.parallel.frames import validate_payload
from repro.grids.interpolation import OversetInterpolator
from repro.grids.yinyang import YinYangGrid
from repro.parallel.decomposition import PanelDecomposition, Subdomain
from repro.parallel.simmpi import CommunicatorBase

Array = np.ndarray

#: Tag block of the overset messages under the world communicator (one
#: tag per direction).
_TAG_BASE = 4096


@dataclass
class _ReceptorSide:
    """What one receptor rank must do for one direction."""

    n_loc: int
    ring_lith: Array  # local theta indices of my ring points
    ring_liph: Array
    weights: Float64[4, "n_loc"]  # bilinear corner weights
    rotation: Float64["n_loc", 3, 3]  # donor->receptor component rotation
    #: donor panel-rank -> (corner slot array, local point array) in the
    #: deterministic message order
    sources: dict[int, tuple[Array, Array]] = field(default_factory=dict)


@dataclass
class _DonorSide:
    """What one donor rank must send for one direction."""

    #: receptor panel-rank -> (local theta idx, local phi idx) to gather
    targets: dict[int, tuple[Array, Array]] = field(default_factory=dict)


def _build_direction(
    interp: OversetInterpolator,
    decomp: PanelDecomposition,
    my_rank: int,
    my_sub: Subdomain,
    i_am_donor: bool,
    i_am_receptor: bool,
) -> tuple[_DonorSide | None, _ReceptorSide | None]:
    rith, riph = interp.ring_ith, interp.ring_iph
    receptor_owner = decomp.owner_of(rith, riph)
    corners = interp.stencil.corner_weights()  # 4 x (cith, ciph, w)

    receptor: _ReceptorSide | None = None
    if i_am_receptor:
        mine = np.flatnonzero(receptor_owner == my_rank)
        lith, liph = my_sub.to_local(rith[mine], riph[mine])
        weights = np.stack([w[mine] for (_, _, w) in corners])
        rotation = interp.rotation[mine]
        receptor = _ReceptorSide(
            n_loc=mine.size,
            ring_lith=lith.astype(np.intp),
            ring_liph=liph.astype(np.intp),
            weights=weights,
            rotation=rotation,
        )

    donor: _DonorSide | None = _DonorSide() if i_am_donor else None

    # deterministic (donor_rank, receptor_rank) message contents
    for r in range(decomp.nranks):
        mine = np.flatnonzero(receptor_owner == r)
        if mine.size == 0:
            continue
        # stack the 4 corners of each of r's points: order (corner, point)
        slot_c = np.repeat(np.arange(4, dtype=np.intp), mine.size)
        slot_j = np.tile(np.arange(mine.size, dtype=np.intp), 4)
        cith = np.concatenate([c[0][mine] for c in corners])
        ciph = np.concatenate([c[1][mine] for c in corners])
        downer = decomp.owner_of(cith, ciph)
        for d in range(decomp.nranks):
            sel = np.flatnonzero(downer == d)
            if sel.size == 0:
                continue
            if i_am_donor and d == my_rank:
                dsub = decomp.subdomain(d)
                gl = dsub.to_local(cith[sel], ciph[sel])
                assert donor is not None
                donor.targets[r] = (gl[0].astype(np.intp), gl[1].astype(np.intp))
            if i_am_receptor and r == my_rank:
                assert receptor is not None
                receptor.sources[d] = (slot_c[sel], slot_j[sel])
    return donor, receptor


class OversetExchanger:
    """Runs the Yin<->Yang boundary exchange for one rank.

    Parameters
    ----------
    grid:
        The global Yin-Yang grid (every rank holds the geometry).
    decomp:
        The per-panel decomposition (identical for both panels).
    world:
        The world communicator (panel groups interleaved as
        ``world_rank = panel_index * nranks_per_panel + panel_rank``,
        the layout produced by ``world.split(color=panel_index)``).
    panel_index:
        0 for Yin, 1 for Yang — my panel.
    panel_rank:
        My rank within the panel group.
    """

    def __init__(
        self,
        grid: YinYangGrid,
        decomp: PanelDecomposition,
        world: CommunicatorBase,
        panel_index: int,
        panel_rank: int,
    ):
        self.world = world
        self.decomp = decomp
        self.panel_index = panel_index
        self.panel_rank = panel_rank
        self.nper = decomp.nranks
        sub = decomp.subdomain(panel_rank)
        self.sub = sub
        # direction key = receptor panel index; to_yang: donor yin (0) -> yang (1)
        self.plans: dict[int, tuple[_DonorSide | None, _ReceptorSide | None]] = {}
        for receptor_panel, interp in ((1, grid.to_yang), (0, grid.to_yin)):
            donor_panel = 1 - receptor_panel
            self.plans[receptor_panel] = _build_direction(
                interp,
                decomp,
                panel_rank,
                sub,
                i_am_donor=(panel_index == donor_panel),
                i_am_receptor=(panel_index == receptor_panel),
            )

    def _world_rank(self, panel_index: int, panel_rank: int) -> int:
        return panel_index * self.nper + panel_rank

    # ---- exchanges ------------------------------------------------------------

    def exchange_state(
        self,
        state,
        tag0: int = 0,
        rotate_groups: tuple[tuple[int, int, int], ...] = ((1, 2, 3), (5, 6, 7)),
    ) -> None:
        """Exchange *all* prognostic fields of a state at once, in place.

        ``state`` is an :class:`~repro.mhd.state.MHDState` (anything with
        ``.arrays()``) or a plain sequence of fields.  ``rotate_groups``
        names the index triples that are spherical vector components and
        get the donor->receptor basis rotation; the defaults match the
        prognostic layout ``(rho, fr, fth, fph, p, ar, ath, aph)``; pass
        ``()`` for scalars only.  Both directions proceed concurrently:
        this rank sends its donor columns for the opposite panel's ring
        and fills its own ring points from the opposite panel's donors.
        """
        fields = tuple(state.arrays()) if hasattr(state, "arrays") else tuple(state)
        self._exchange_packed(fields, rotate_groups, tag0)

    def _post_plan(self):
        my_receptor_dir = self.panel_index
        my_donor_dir = 1 - self.panel_index
        _, receptor = self.plans[my_receptor_dir]
        donor, _ = self.plans[my_donor_dir]
        assert receptor is not None and donor is not None
        return donor, receptor

    @hot_path
    def _combine(self, receptor: _ReceptorSide, corner_vals: Array,
                 rotate_groups, fields: Sequence[Array]) -> None:
        """Weighted combine + rotation + ring write-back (this is where
        bitwise equivalence with the serial interpolator lives)."""
        nf = len(fields)
        # bilinear combine, accumulated corner-by-corner in the same
        # (left-associated) order as the serial interpolator so the
        # parallel solver reproduces serial floats bitwise
        w = receptor.weights
        vals = []
        for k in range(nf):
            acc = corner_vals[k, 0] * w[0]
            for cc in range(1, 4):
                acc = acc + corner_vals[k, cc] * w[cc]
            vals.append(acc)

        R = receptor.rotation  # (n_loc, 3, 3)
        for (a, b, c) in rotate_groups:
            vr = R[:, 0, 0] * vals[a] + R[:, 0, 1] * vals[b] + R[:, 0, 2] * vals[c]
            vth = R[:, 1, 0] * vals[a] + R[:, 1, 1] * vals[b] + R[:, 1, 2] * vals[c]
            vph = R[:, 2, 0] * vals[a] + R[:, 2, 1] * vals[b] + R[:, 2, 2] * vals[c]
            vals[a], vals[b], vals[c] = vr, vth, vph

        i, j = receptor.ring_lith, receptor.ring_liph
        for k in range(nf):
            fields[k][:, i, j] = vals[k]

    def protocol_ops(self, tag0: int = 0) -> dict:
        """Wire protocol of one :meth:`exchange_state` for this
        rank, as ``{"recvs": [(src_world, tag)], "sends": [(dest_world,
        tag)]}`` in posting order.

        Derived from the same plan objects ``_packed_begin`` iterates —
        no communicator needed (the exchanger may be built with
        ``world=None``), so the schedule model checker
        (:func:`repro.checkers.schedule.dynamo_step_programs`) checks
        the protocol that actually ships.
        """
        donor, receptor = self._post_plan()
        recv_tag = _TAG_BASE + tag0 + 4 * self.panel_index
        send_tag = _TAG_BASE + tag0 + 4 * (1 - self.panel_index)
        return {
            "recvs": [(self._world_rank(1 - self.panel_index, d), recv_tag)
                      for d in receptor.sources],
            "sends": [(self._world_rank(1 - self.panel_index, r), send_tag)
                      for r in donor.targets],
        }

    @hot_path
    def _packed_begin(self, fields: Sequence[Array], tag0: int) -> list[tuple]:
        """Post all receives and pack+post all sends; returns the posted
        receive requests for :meth:`_packed_finish` to drain."""
        nf = len(fields)
        donor, receptor = self._post_plan()
        nr = fields[0].shape[0]

        # post receives for my ring data: one message per donor rank
        recvs = []
        for d, (slot_c, slot_j) in receptor.sources.items():
            src = self._world_rank(1 - self.panel_index, d)
            tag = _TAG_BASE + tag0 + 4 * self.panel_index
            recvs.append((self.world.Irecv(source=src, tag=tag), slot_c, slot_j))

        # send my donor columns for the opposite ring, all fields packed
        for r, (lith, liph) in donor.targets.items():
            dest = self._world_rank(1 - self.panel_index, r)
            tag = _TAG_BASE + tag0 + 4 * (1 - self.panel_index)
            # the message buffer itself: ownership moves to the comm layer
            buf = np.empty((nf, nr, lith.size), dtype=fields[0].dtype)  # repro: noqa-REP001
            for k in range(nf):
                buf[k] = fields[k][:, lith, liph]
            # freshly packed, never reused here: zero-copy handoff
            self.world.Send(buf, dest=dest, tag=tag, move=True)
        return recvs

    @hot_path
    def _packed_finish(self, fields: Sequence[Array], rotate_groups,
                       recvs: list[tuple]) -> None:
        """Wait, validate and unpack every receive, then combine."""
        nf = len(fields)
        _, receptor = self._post_plan()
        nr = fields[0].shape[0]

        if receptor.n_loc == 0:
            for req, *_ in recvs:
                req.wait()
            return

        # scatter target for the received columns (sized per exchange)
        corner_vals = np.zeros((nf, 4, nr, receptor.n_loc))  # repro: noqa-REP001
        for req, slot_c, slot_j in recvs:
            payload = validate_payload(
                req.wait(), (nf, nr, slot_c.size), fields[0].dtype,
                what="packed overset message",
                plan="this rank's interpolation plan",
            )
            for k in range(nf):
                corner_vals[k, slot_c, :, slot_j] = payload[k].T

        self._combine(receptor, corner_vals, rotate_groups, fields)

    @contract
    def _exchange_packed(self, fields: Sequence[Float64["nr", "lth", "lph"]],
                         rotate_groups, tag0: int) -> None:
        """One ``(nfields, nr, m)`` message per donor->receptor pair.

        Split in two so each packed send buffer is released (moved to
        the communicator) before the receive side allocates its own.
        """
        recvs = self._packed_begin(fields, tag0)
        self._packed_finish(fields, rotate_groups, recvs)
