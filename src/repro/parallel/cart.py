"""Cartesian process topologies (the paper's ``MPI_CART_CREATE``).

Within each Yin-Yang panel the paper decomposes the horizontal
``(theta, phi)`` plane over a two-dimensional process array and finds
the four nearest neighbours with ``MPI_CART_SHIFT``.  SimMPI has no
built-in topology support, so this module provides the same calls on
top of plain communicators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.simmpi import Communicator
from repro.utils.validation import require

#: Marker for "no neighbour in that direction" (MPI_PROC_NULL).
PROC_NULL = -1


@dataclass
class CartComm:
    """A communicator with 2-D cartesian coordinates attached.

    Rank-to-coordinate mapping is row-major in ``dims``, matching MPI's
    default ordering.
    """

    comm: Communicator
    dims: tuple[int, int]
    periods: tuple[bool, bool] = (False, False)

    def __post_init__(self):
        require(
            self.dims[0] * self.dims[1] == self.comm.size,
            f"dims {self.dims} do not tile a communicator of size {self.comm.size}",
        )

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def coords(self, rank: int | None = None) -> tuple[int, int]:
        """Cartesian coordinates of ``rank`` (default: my rank)."""
        r = self.comm.rank if rank is None else rank
        return divmod(r, self.dims[1])

    def rank_of(self, coord: tuple[int, int]) -> int:
        """Rank at cartesian coordinates (must be in range / wrapped)."""
        i, j = coord
        ni, nj = self.dims
        if self.periods[0]:
            i %= ni
        if self.periods[1]:
            j %= nj
        require(0 <= i < ni and 0 <= j < nj, f"coordinate {coord} outside {self.dims}")
        return i * nj + j

    def shift(self, direction: int, disp: int = 1) -> tuple[int, int]:
        """``MPI_CART_SHIFT``: ``(source, dest)`` ranks for a shift of
        ``disp`` along ``direction`` (0 = theta rows, 1 = phi columns);
        ``PROC_NULL`` where the topology ends."""
        require(direction in (0, 1), f"direction must be 0 or 1, got {direction}")
        me = list(self.coords())

        def resolve(offset: int) -> int:
            c = me.copy()
            c[direction] += offset
            n = self.dims[direction]
            if self.periods[direction]:
                c[direction] %= n
            elif not 0 <= c[direction] < n:
                return PROC_NULL
            return self.rank_of((c[0], c[1]))

        return resolve(-disp), resolve(+disp)

    def neighbours(self) -> dict:
        """The four nearest neighbours: north/south (theta -/+), west/east
        (phi -/+); ``PROC_NULL`` beyond non-periodic edges."""
        north, south = self.shift(0, 1)
        west, east = self.shift(1, 1)
        return {"north": north, "south": south, "west": west, "east": east}


def create_cart(
    comm: Communicator, dims: tuple[int, int], periods: tuple[bool, bool] = (False, False)
) -> CartComm:
    """Build a cartesian topology over ``comm`` (collective, like MPI)."""
    comm.barrier()  # mirror the collective nature of MPI_CART_CREATE
    return CartComm(comm=comm, dims=tuple(dims), periods=tuple(periods))
