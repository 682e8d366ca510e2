"""Simulated MPI: communicator interface, wire-size accounting, SPMD engines."""

from .comm import Communicator, ReduceOp
from .engine import (
    SpmdError,
    ThreadComm,
    ThreadEngine,
    get_engine,
    register_engine,
    run_spmd,
)
from .procengine import ProcessEngine, process_engine_available
from .serialization import wire_size, varint_size, WireSized

# the multiprocessing backend registers itself here (procengine imports
# engine, never the other way around, so the registry stays cycle-free)
register_engine("processes", ProcessEngine)

__all__ = [
    "Communicator",
    "ReduceOp",
    "ThreadComm",
    "ThreadEngine",
    "ProcessEngine",
    "process_engine_available",
    "SpmdError",
    "run_spmd",
    "register_engine",
    "get_engine",
    "wire_size",
    "varint_size",
    "WireSized",
]
