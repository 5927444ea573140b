"""Flat-MPI parallelisation of yycore (paper Section IV) on SimMPI.

The paper parallelises with MPI: ``MPI_COMM_SPLIT`` divides the
processes into the Yin and Yang panel groups, ``MPI_CART_CREATE`` builds
a 2-D process array within each panel, halo exchange uses
``MPI_SEND / MPI_IRECV`` between the four neighbours, and the Yin<->Yang
overset interpolation communicates under the world communicator.

The same program structure runs on one message layer: the
:class:`~repro.parallel.simmpi.Communicator`, over a per-rank runtime
chosen from the launcher registry (:mod:`repro.parallel.backends`) —
``thread`` (:class:`~repro.parallel.simmpi.SimMPI`: in-process
mailboxes, the correctness substrate), ``process``
(:class:`~repro.parallel.procmpi.ProcMPI`: one OS process per rank over
a ``multiprocessing.shared_memory`` arena — real multi-core execution)
or ``socket`` (:class:`~repro.parallel.sockmpi.SockMPI`: ranks joined
over TCP, possibly across hosts).  The backends differ only in how one
tagged message moves between two ranks; the parallel solver is verified
to reproduce the serial yycore fields exactly on all three.
"""

from repro.parallel.simmpi import SimMPI, Communicator, ANY_SOURCE, ANY_TAG
from repro.parallel.backends import available_backends, get_backend
from repro.parallel.cart import CartComm, create_cart
from repro.parallel.decomposition import PanelDecomposition, Subdomain, split_indices
from repro.parallel.halo import HaloExchanger
from repro.parallel.overset_comm import OversetExchanger
from repro.parallel.parallel_solver import ParallelYinYangDynamo, run_parallel_dynamo
from repro.parallel.procmpi import ProcMPI
from repro.parallel.tracing import CommTrace, TracedCommunicator

__all__ = [
    "SimMPI",
    "ProcMPI",
    "Communicator",
    "available_backends",
    "get_backend",
    "ANY_SOURCE",
    "ANY_TAG",
    "CartComm",
    "create_cart",
    "PanelDecomposition",
    "Subdomain",
    "split_indices",
    "HaloExchanger",
    "OversetExchanger",
    "ParallelYinYangDynamo",
    "run_parallel_dynamo",
    "CommTrace",
    "TracedCommunicator",
]
