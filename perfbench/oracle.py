"""The benchmark's own differential oracle: every op against ``sorted()``.

``Cluster.sort(check=True)`` is never used: on PDMS its
``check_prefix_permutation`` costs more than twenty times the sort it
checks (README finding (c)).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class Oracle:
    """Expected outputs of the ops of one :class:`common.Session`."""

    def __init__(self, inputs: List[List[bytes]]):
        self._expected = [sorted(block) for block in inputs]
        # PDMS origins point into each PE's locally sorted block; the blocks
        # of input ``i`` are the same on every op, so they are sorted once
        self._sorted_blocks: Dict[int, List[List[bytes]]] = {}

    def mismatch(self, index: int, result: Any) -> Optional[str]:
        """``None`` when ``result`` is the correct sort of input ``index``."""
        expected = self._expected[index]
        if result.origins_per_pe is None:
            if [s for part in result.outputs_per_pe for s in part] != expected:
                return f"input {index}: output differs from sorted()"
            return None

        blocks = self._sorted_blocks.get(index)
        if blocks is None:
            blocks = [sorted(block) for block in result.inputs_per_pe]
            self._sorted_blocks[index] = blocks
        full: List[bytes] = []
        seen = set()
        for prefixes, origins in zip(result.outputs_per_pe, result.origins_per_pe):
            if len(prefixes) != len(origins):
                return f"input {index}: {len(prefixes)} prefixes, {len(origins)} origins"
            for prefix, origin in zip(prefixes, origins):
                source = blocks[origin[0]][origin[1]]
                if not source.startswith(prefix):
                    return f"input {index}: {prefix!r} is no prefix of its origin {origin}"
                full.append(source)
                seen.add(tuple(origin))
        if len(seen) != len(full):
            return f"input {index}: an origin is named twice"
        if full != expected:
            return f"input {index}: origins do not map onto sorted()"
        return None
