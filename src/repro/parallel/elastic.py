"""Elastic restart: re-decompose a checkpoint onto a different world.

A parallel run of ``2 * pth * pph`` ranks checkpoints as one archive
*per rank* (``<base>_rankNNN.npz``), each carrying its tile plus the
placement metadata the solver recorded (panel, panel rank, ``pth x
pph`` process grid, panel extents).  This module turns any such family
— or a serial global panel-pair archive — back into the exact global
state, so a restart may use a *different* rank count (``--ranks M``
with ``M != N``), a different backend, or the serial driver.

Why the assembly is bitwise-exact: every global point is *owned* by
exactly one tile, and the halo points of every saved tile are copies of
the owning neighbour's post-enforce data (the engine checkpoints after
``enforce``).  Stitching only the owned blocks therefore reconstructs
the global post-enforce state exactly; restricting it onto any other
decomposition — halos included, since a halo is just another rank's
owned data — reproduces what that decomposition's own exchange would
have produced, bit for bit.  The integration tests assert this across
rank counts and backends.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.core.checkpoint import load_checkpoint, read_checkpoint
from repro.grids.component import Panel
from repro.mhd.state import FIELD_NAMES, MHDState
from repro.parallel.decomposition import PanelDecomposition

__all__ = [
    "assemble_rank_files",
    "find_rank_files",
    "load_any_checkpoint",
    "restrict_pair",
]

_RANK_RE = re.compile(r"_rank(\d+)$")


def _base_stem(path: Path) -> str:
    """Archive stem with any ``_rankNNN`` suffix removed."""
    stem = path.stem
    return _RANK_RE.sub("", stem)


def find_rank_files(path: str | Path) -> list[Path]:
    """The per-rank archive family of a checkpoint base path.

    ``path`` may be the base (``ckpt/checkpoint_000010.npz``, as passed
    to ``save_checkpoint``) or any one member of the family; returns the
    members sorted by rank number.
    """
    path = Path(path)
    suffix = path.suffix or ".npz"
    pattern = f"{_base_stem(path)}_rank*{suffix}"
    found = [
        p for p in sorted(path.parent.glob(pattern))
        if _RANK_RE.search(p.stem)
    ]
    return sorted(found, key=lambda p: int(_RANK_RE.search(p.stem).group(1)))


def assemble_rank_files(
    files: list[Path],
) -> tuple[dict[Panel, MHDState], float, int]:
    """Stitch a per-rank archive family into the global panel pair.

    Every file must carry the placement metadata written by
    :meth:`~repro.parallel.parallel_solver.ParallelYinYangDynamo.
    save_checkpoint`; the family must be complete (``2 * pth * pph``
    members over the two panels) and mutually consistent.
    """
    if not files:
        raise ValueError("no per-rank checkpoint files to assemble")
    tiles = []
    for f in files:
        states, t, step, meta = read_checkpoint(f)
        if not isinstance(states, MHDState):
            raise ValueError(f"{f}: expected a single-tile archive, got a pair")
        needed = {"panel", "panel_rank", "pth", "pph", "nth", "nph"}
        if not needed <= meta.keys():
            raise ValueError(
                f"{f}: missing placement metadata {sorted(needed - meta.keys())} "
                "— written before elastic restart support? Restart with the "
                "original rank count instead."
            )
        tiles.append((f, states, t, step, meta))
    f0, s0, t0, step0, m0 = tiles[0]
    geometry = (m0["pth"], m0["pph"], m0["nth"], m0["nph"])
    for f, _s, t, step, m in tiles:
        if (m["pth"], m["pph"], m["nth"], m["nph"]) != geometry or (
            t, step) != (t0, step0):
            raise ValueError(
                f"inconsistent checkpoint family: {f} disagrees with {f0} "
                f"on geometry or run clock"
            )
    decomp = PanelDecomposition(int(m0["nth"]), int(m0["nph"]),
                                int(m0["pth"]), int(m0["pph"]))
    expected = 2 * decomp.nranks
    if len(tiles) != expected:
        raise ValueError(
            f"incomplete checkpoint family: {len(tiles)} file(s) for a "
            f"{m0['pth']} x {m0['pph']} x 2-panel world of {expected} rank(s)"
        )
    nr = s0.rho.shape[0]
    pair = {
        p: MHDState.zeros((nr, int(m0["nth"]), int(m0["nph"])))
        for p in (Panel.YIN, Panel.YANG)
    }
    seen: set[tuple[str, int]] = set()
    for f, tile, _t, _step, m in tiles:
        panel = Panel(str(m["panel"]))
        key = (panel.value, int(m["panel_rank"]))
        if key in seen:
            raise ValueError(f"duplicate tile {key} in checkpoint family ({f})")
        seen.add(key)
        sub = decomp.subdomain(int(m["panel_rank"]))
        oth, oph = sub.owned_local()
        gsl = sub.global_slices()
        for name in FIELD_NAMES:
            block = getattr(tile, name)[:, oth, oph]
            getattr(pair[panel], name)[:, gsl[0], gsl[1]] = block
    return pair, float(t0), int(step0)


def load_any_checkpoint(
    path: str | Path,
) -> tuple[dict[Panel, MHDState], float, int]:
    """Load a checkpoint as the global panel pair, whatever its layout.

    Accepts a serial panel-pair archive, or the base path (or any
    member) of a per-rank tile family — the latter is assembled via
    :func:`assemble_rank_files`.  Returns ``(pair, time, step)``.
    """
    path = Path(path)
    direct = path if path.exists() else path.with_suffix(path.suffix + ".npz")
    if direct.exists() and not _RANK_RE.search(direct.stem):
        states, t, step = load_checkpoint(direct)
        if isinstance(states, MHDState):
            raise ValueError(
                f"{direct}: single (lat-lon) state — not a Yin-Yang "
                "checkpoint a panel world can restart from"
            )
        return states, t, step
    files = find_rank_files(path)
    if not files:
        raise FileNotFoundError(
            f"no checkpoint at {path} (neither a global archive nor a "
            f"per-rank family {_base_stem(path)}_rank*.npz)"
        )
    return assemble_rank_files(files)


def restrict_pair(
    pair: dict[Panel, MHDState], panel: Panel, sl: tuple[slice, slice],
) -> MHDState:
    """One rank's tile (owned + halos) restricted out of the global pair."""
    g = pair[panel]
    return MHDState(
        *(np.ascontiguousarray(arr[:, sl[0], sl[1]]) for arr in g.arrays())
    )
