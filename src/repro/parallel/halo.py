"""Nearest-neighbour halo exchange (the paper's intra-panel communication).

Each process exchanges ``HALO``-wide strips of owned data with its four
cartesian neighbours using ``Send`` / ``Irecv`` pairs, exactly the
communication pattern of Section IV.  Fields are ``(nr, lth, lph)``
local arrays; the radial axis travels whole (it is never decomposed).

All fields travelling together are *packed* into one contiguous
``(nfields, nr, ...)`` buffer per neighbour per phase — one message
instead of ``nfields`` — and handed to the communicator with
``move=True`` (the buffer is freshly allocated and never reused, so
the thread backend skips its eager copy and the process backend
memcpys straight into shared memory).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.checkers.hotpath import hot_path
from repro.parallel.frames import validate_payload
from repro.parallel.cart import PROC_NULL, CartComm
from repro.parallel.decomposition import HALO, Subdomain

Array = np.ndarray

# tag per direction; the theta phase adds 4 so the two phases never
# cross-talk
_DIR_TAGS = {"north": 0, "south": 1, "west": 2, "east": 3}


class HaloExchanger:
    """Exchanges halo strips of local fields over a cartesian topology."""

    def __init__(self, cart: CartComm, sub: Subdomain):
        self.cart = cart
        self.sub = sub
        self.nbr = cart.neighbours()
        # sanity: neighbour existence must match the subdomain's halo widths
        pairs = (
            ("north", sub.halo_n), ("south", sub.halo_s),
            ("west", sub.halo_w), ("east", sub.halo_e),
        )
        for name, width in pairs:
            has_nbr = self.nbr[name] != PROC_NULL
            if has_nbr != (width > 0):
                raise ValueError(
                    f"subdomain halo width {width} inconsistent with "
                    f"{name} neighbour {self.nbr[name]}"
                )

    # strip selectors: owned data to send, halo region to fill.  The phi
    # (east/west) phase moves owned-theta strips; the subsequent theta
    # (north/south) phase moves strips spanning the FULL local phi width
    # (owned + just-updated phi halos) so the corner halo cells — needed
    # by two-level mixed derivatives such as curl(curl(.)) — are filled
    # with the diagonal neighbour's owned values.
    def _send_slice(self, direction: str):
        s = self.sub
        oth, oph = s.owned_local()
        if direction == "north":
            return (slice(None), slice(oth.start, oth.start + HALO), slice(None))
        if direction == "south":
            return (slice(None), slice(oth.stop - HALO, oth.stop), slice(None))
        if direction == "west":
            return (slice(None), oth, slice(oph.start, oph.start + HALO))
        if direction == "east":
            return (slice(None), oth, slice(oph.stop - HALO, oph.stop))
        raise ValueError(direction)

    def _recv_slice(self, direction: str):
        s = self.sub
        oth, oph = s.owned_local()
        if direction == "north":
            return (slice(None), slice(oth.start - HALO, oth.start), slice(None))
        if direction == "south":
            return (slice(None), slice(oth.stop, oth.stop + HALO), slice(None))
        if direction == "west":
            return (slice(None), oth, slice(oph.start - HALO, oph.start))
        if direction == "east":
            return (slice(None), oth, slice(oph.stop, oph.stop + HALO))
        raise ValueError(direction)

    @staticmethod
    def _opposite(direction: str) -> str:
        return {"north": "south", "south": "north", "west": "east", "east": "west"}[
            direction
        ]

    @hot_path
    def _exchange_phase(self, fields: Sequence[Array],
                        directions, tag_base: int) -> None:
        """Post one receive per present neighbour in ``directions``,
        pack+send the outgoing strips, then wait/validate/unpack."""
        recvs: list[tuple] = []
        for direction in directions:
            nbr = self.nbr[direction]
            if nbr == PROC_NULL:
                continue
            tag = tag_base + _DIR_TAGS[direction]
            req = self.cart.comm.Irecv(source=nbr, tag=tag)
            recvs.append((req, direction))
        for direction in directions:
            nbr = self.nbr[direction]
            if nbr == PROC_NULL:
                continue
            # the message I send fills my neighbour's halo on the side
            # facing me, so it carries the tag of the *opposite*
            # direction as seen by the receiver
            tag = tag_base + _DIR_TAGS[self._opposite(direction)]
            sl = self._send_slice(direction)
            strip_shape = fields[0][sl].shape
            # the message buffer itself: ownership moves to the comm layer
            buf = np.empty((len(fields),) + strip_shape, dtype=fields[0].dtype)  # repro: noqa-REP001
            for k, f in enumerate(fields):
                buf[k] = f[sl]
            # freshly allocated, never touched again on this side: move it
            self.cart.comm.Send(buf, dest=nbr, tag=tag, move=True)
        for req, direction in recvs:
            sl = self._recv_slice(direction)
            payload = validate_payload(
                req.wait(), (len(fields),) + fields[0][sl].shape,
                fields[0].dtype,
                what=f"packed halo message from the {direction} neighbour",
                plan="this rank's decomposition plan",
            )
            for k, f in enumerate(fields):
                f[sl] = payload[k]

    def exchange(self, fields: Sequence[Array],
                 tag_base: int = 0) -> None:
        """Exchange halos of several fields, in place.

        Two phases — phi direction, then theta with full-width strips —
        deliver edge and corner halo data in the paper's
        ``MPI_SEND`` / ``MPI_IRECV`` nearest-neighbour pattern, one
        coalesced buffer per neighbour per phase.
        """
        self._exchange_phase(fields, ("west", "east"), tag_base)
        self._exchange_phase(fields, ("north", "south"), tag_base + 4)

    def bytes_per_exchange(self, nr: int, nfields: int, itemsize: int = 8) -> int:
        """Communication volume of one :meth:`exchange` call (sent bytes).

        Used by tests cross-checking the performance model's halo-volume
        formula against the runtime's actual accounting.
        """
        total = 0
        oth, _ = self.sub.owned_shape
        full_ph = self.sub.local_shape[1]
        for direction, nbr in self.nbr.items():
            if nbr == PROC_NULL:
                continue
            # theta-direction strips span the full local phi width
            # (owned + phi halos) so corners travel in phase two
            strip = full_ph if direction in ("north", "south") else oth
            total += HALO * strip * nr * itemsize
        return total * nfields
