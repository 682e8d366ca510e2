"""Seeded bug: a blocking receive whose tag no send ever posts.

The even ranks send with tag 11 but the odd ranks wait on tag 12 — the
receive can never be satisfied.  Both engines raise a tag mismatch at
runtime: ``tests/test_engine_conformance.py`` runs this program.
"""


def mismatched_tags(comm, local):
    if comm.rank % 2 == 0:
        comm.send(local, comm.rank + 1, tag=11)
        return local
    return comm.recv(comm.rank - 1, tag=12)
