"""Seeded bug: collective sequence diverges across a rank-dependent branch.

The root rank issues ``gather`` + ``bcast`` while every other rank only
issues ``gather`` — the non-root ranks never enter the broadcast and the
program deadlocks.  Both engines name it at runtime (the threads engine's
deadlock report, the processes engine's lost rank):
``tests/test_engine_conformance.py`` runs this program.
"""


def divergent_reduce(comm, local):
    total = comm.allreduce(len(local))
    if comm.rank == 0:
        gathered = comm.gather(local, root=0)
        comm.bcast(len(gathered), root=0)
    else:
        comm.gather(local, root=0)
    return total
