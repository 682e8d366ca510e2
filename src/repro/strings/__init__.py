"""String containers, LCP machinery, workload generators and output checkers."""

from .packed import (
    PackedStringArray,
    packed_lcp_array,
    packed_bucket_boundaries,
    packed_sort,
    truncate,
    validate_strings,
)
from .stringset import StringSet
from .lcp import (
    lcp_array,
    distinguishing_prefix_size,
    dn_ratio,
    merge_lcp_statistics,
)
from .generators import (
    dn_instance,
    skewed_dn_instance,
    dn_instance_for_pes,
    random_strings,
    commoncrawl_like,
    dna_reads,
    suffix_instance,
)
from .checker import SortCheckError, check_sort

__all__ = [
    "PackedStringArray",
    "packed_lcp_array",
    "packed_bucket_boundaries",
    "packed_sort",
    "truncate",
    "StringSet",
    "validate_strings",
    "lcp_array",
    "distinguishing_prefix_size",
    "dn_ratio",
    "merge_lcp_statistics",
    "dn_instance",
    "skewed_dn_instance",
    "dn_instance_for_pes",
    "random_strings",
    "commoncrawl_like",
    "dna_reads",
    "suffix_instance",
    "SortCheckError",
    "check_sort",
]
