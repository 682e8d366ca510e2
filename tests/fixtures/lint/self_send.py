"""Seeded bug: a blocking send whose peer arithmetic folds to the caller.

``rank + cube - cube`` is identically ``comm.rank``, so the blocking send
addresses the sending rank itself.  Both engines refuse a blocking send to
one's own rank at runtime: ``tests/test_engine_conformance.py`` runs this
program.
"""


def fold_to_self(comm, payload):
    rank = comm.rank
    cube = 0
    comm.send(payload, rank + cube, tag=31)
    return comm.recv(rank ^ 0, tag=31)
