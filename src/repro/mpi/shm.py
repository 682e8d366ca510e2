"""Zero-copy shared-memory data plane of the multiprocessing engine.

The processes engine (:mod:`repro.mpi.procengine`) moves control frames over
OS pipes, but bulk payloads — packed string buckets, LCP arrays, route
frames — would be painfully slow to copy through a pipe twice.  This module
encodes any message object into a small pipe blob plus, when the payload is
large, **one** POSIX shared-memory segment:

* the object is pickled with protocol 5, which surfaces every contiguous
  ``numpy`` buffer (the PR 2 packed layout: one ``uint8`` character buffer
  plus an ``int64`` offset array) as an out-of-band :class:`pickle.PickleBuffer`;
* the pickle stream and the raw buffers are laid out 8-byte-aligned in a
  single :class:`multiprocessing.shared_memory.SharedMemory` segment;
* the receiver attaches, **unlinks immediately** (ownership transfer — on
  Linux the mapping stays valid until the last close), and unpickles with
  ``buffers=`` pointing straight into the mapping, so the reconstructed
  arrays are zero-copy views of shared memory.

Segment names carry an engine/run-unique prefix so a parent can sweep
leftovers of a crashed run (:func:`sweep_segments`) and the leak-check test
fixture can assert nothing survived a test.
"""

from __future__ import annotations

import os
import pickle
from multiprocessing import resource_tracker, shared_memory
from typing import Any, List, Optional, Tuple

__all__ = [
    "SHM_THRESHOLD",
    "dumps",
    "loads",
    "sweep_segments",
    "shared_memory_available",
    "ensure_tracker",
]

#: payloads at or above this many bytes travel through a shared-memory
#: segment instead of in-band through the pipe.  Kept well under the 64 KiB
#: Linux pipe buffer so one in-band frame can never fill the pipe and
#: deadlock two ranks that write to each other before reading.
SHM_THRESHOLD = 1 << 15

#: where Linux materialises POSIX shared memory (used by the leak sweep)
SHM_DIR = "/dev/shm"

_IN_BAND = b"I"
_SEGMENT = b"S"


def _align(n: int) -> int:
    """Round ``n`` up to the next multiple of 8 (buffer alignment)."""
    return (n + 7) & ~7


def dumps(obj: Any, segment_name: Optional[str] = None) -> Tuple[bytes, int]:
    """Encode ``obj`` into a pipe blob, spilling bulk data to shared memory.

    Returns ``(blob, shm_bytes)``: the blob goes through the pipe,
    ``shm_bytes`` is how many bytes (0 for in-band messages) were placed in
    the shared segment — the caller adds both into the real-transport
    counters.  ``segment_name`` must be unique per message and is only used
    when the payload reaches :data:`SHM_THRESHOLD`; pass ``None`` to force the
    in-band path.
    """
    buffers: List[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buf.raw() for buf in buffers]
    total = len(data) + sum(v.nbytes for v in views)
    if segment_name is None or total < SHM_THRESHOLD:
        for buf in buffers:
            buf.release()
        if not buffers:
            return _IN_BAND + data, 0
        # small payload: re-pickle with the buffers serialised in-band (one
        # extra copy is cheaper than a segment round-trip)
        return _IN_BAND + pickle.dumps(obj, protocol=5), 0
    # lay out [pickle stream][buffer 0][buffer 1]... in one segment
    spans: List[Tuple[int, int]] = []
    offset = _align(len(data))
    for view in views:
        spans.append((offset, view.nbytes))
        offset = _align(offset + view.nbytes)
    seg = shared_memory.SharedMemory(name=segment_name, create=True, size=max(1, offset))
    try:
        seg.buf[: len(data)] = data
        for (start, size), view in zip(spans, views):
            if size:
                seg.buf[start : start + size] = view
    finally:
        for buf in buffers:
            buf.release()
        seg.close()
    meta = (segment_name, len(data), spans)
    return _SEGMENT + pickle.dumps(meta, protocol=5), offset


def loads(blob: bytes) -> Tuple[Any, Optional[shared_memory.SharedMemory]]:
    """Decode a :func:`dumps` blob; returns ``(obj, segment_handle_or_None)``.

    For segment-backed messages the segment is unlinked here (ownership
    transfer: the name disappears, the mapping survives) and the handle is
    returned so the caller can keep it alive as long as the zero-copy views
    inside ``obj`` are in use, then ``close()`` it at teardown.
    """
    kind = blob[:1]
    body = memoryview(blob)[1:]
    if kind == _IN_BAND:
        return pickle.loads(body), None
    if kind != _SEGMENT:
        raise ValueError(f"unknown shm blob marker {kind!r}")
    name, data_len, spans = pickle.loads(body)
    seg = shared_memory.SharedMemory(name=name)
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already swept by a cleanup
        pass
    views = [seg.buf[start : start + size] for start, size in spans]
    obj = pickle.loads(seg.buf[:data_len], buffers=views)
    return obj, seg


def sweep_segments(prefix: str) -> List[str]:
    """Unlink leftover segments named ``prefix*``; returns the names removed.

    The normal lifecycle leaves nothing behind (receivers unlink on
    decode), so anything matching the prefix is debris of a crashed or
    aborted run.  Safe to call repeatedly and on platforms without
    ``/dev/shm`` (it simply finds nothing).
    """
    removed: List[str] = []
    try:
        entries = os.listdir(SHM_DIR)
    except OSError:
        return removed
    for fname in entries:
        if not fname.startswith(prefix):
            continue
        try:
            os.unlink(os.path.join(SHM_DIR, fname))
        except OSError:
            continue
        try:
            # keep the resource tracker's ledger consistent with the manual
            # unlink so interpreter exit does not warn about leaked segments
            resource_tracker.unregister("/" + fname, "shared_memory")
        except Exception:
            pass
        removed.append(fname)
    return removed


def ensure_tracker() -> None:
    """Start the multiprocessing resource tracker in *this* process.

    Called by the processes engine before forking workers so every worker
    inherits the same tracker: segment registrations from the creating
    worker and the unlink from the receiving worker then balance out in one
    ledger, and the interpreter exits without spurious leak warnings.
    """
    resource_tracker.ensure_running()


_AVAILABLE: Optional[Tuple[bool, str]] = None


def shared_memory_available() -> Tuple[bool, str]:
    """Probe (once per process) whether shared-memory segments work here.

    Returns ``(ok, reason)``; ``reason`` is an empty string when available.
    Sandboxed platforms may lack ``/dev/shm`` or forbid ``shm_open``; the
    engine conformance fixtures use this to skip ``processes`` cells
    gracefully instead of erroring.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            seg = shared_memory.SharedMemory(create=True, size=16)
            seg.close()
            seg.unlink()
        except Exception as exc:  # pragma: no cover - platform specific
            _AVAILABLE = (False, f"shared memory unavailable: {exc!r}")
        else:
            _AVAILABLE = (True, "")
    return _AVAILABLE
