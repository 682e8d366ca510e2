"""Seeded bug: a rank program materializes its packed output.

``ms_sort`` returns the merged packed run; unpacking it into a
``list[bytes]`` at the end of the rank program costs milliseconds per
20 000 strings that no caller asked for.  Expected finding:
``wire-hot-materialize``.
"""


def ms_sort(comm, runs, lcps, stats):
    merged, merged_lcps = lcp_multiway_merge_packed(runs, lcps, stats)
    return merged.to_list(), merged_lcps
