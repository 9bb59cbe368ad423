"""Trace compiler: lower a :class:`BuiltWorkload` trace into the one
stored form, a read-only little-endian ``int64`` array of virtual
addresses (:data:`TRACE_DTYPE`).

The sweep behind every figure replays the same reference traces through
hundreds of (scheme × workload × thp) cells.  The model reads one
virtual-address stream per cell, so that stream is all a compiled trace
stores:

* the simulator's per-reference loop reads one memoized list
  (``trace.vas``) shared by every run that reuses the trace;
* the array round-trips losslessly through ``.npy`` on disk
  (:mod:`repro.workloads.trace_cache`), where sweep workers memmap it
  read-only — zero-copy under ``fork``, shared OS page cache under
  ``spawn`` — instead of re-synthesizing the trace per worker.

Identity discipline mirrors the run journal: a compiled trace is fully
described by its *spec* (workload name, footprint scale, workload seed,
reference count, trace seed) plus :data:`GENERATOR_VERSION` and the
dtype, hashed as canonical JSON (:func:`repro.applog.record_digest`).
Bump the version whenever any generator's output — or the stored
layout — changes; every cached entry is then re-keyed at once.

Bit-identity guarantee: the stored array is exactly the array the raw
generator returned, so ``CompiledTrace.vas`` equals its ``tolist()``
element for element — the golden scheme cells reproduce through this
path (asserted in tests/test_trace_cache.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.applog import record_digest

__all__ = [
    "CompiledTrace",
    "GENERATOR_VERSION",
    "TRACE_DTYPE",
    "compiled_trace_for",
    "memoize_trace",
    "pack_trace",
    "spec_digest",
    "trace_spec",
]

#: Bump whenever any trace generator's output, the stored trace layout,
#: or any workload's VMA layout (which cache entries also carry) changes
#: for the same (workload, scale, seeds, refs) inputs.  The version is
#: part of every cache key, so a bump re-keys all on-disk entries at
#: once.  Version 2 stores the bare address column.
GENERATOR_VERSION = 2

#: One little-endian ``int64`` virtual address per memory reference: a
#: fixed layout, so a cached ``.npy`` entry is byte-stable across hosts.
TRACE_DTYPE = np.dtype("<i8")


def trace_spec(
    workload: str,
    scale: int,
    workload_seed: int,
    num_refs: int,
    trace_seed: int,
) -> Dict[str, object]:
    """The complete identity of one compiled trace.

    Everything that shapes the generated addresses is here; nothing
    else is (scheme, THP and timing knobs never touch the generators).
    ``dtype`` pins the stored layout so a layout change can never alias
    an old entry.
    """
    return {
        "workload": workload,
        "scale": scale,
        "workload_seed": workload_seed,
        "num_refs": num_refs,
        "trace_seed": trace_seed,
        "generator_version": GENERATOR_VERSION,
        "dtype": TRACE_DTYPE.str,
    }


def spec_digest(spec: Dict[str, object]) -> str:
    """SHA-256 of the canonical-JSON spec — the cache key."""
    return record_digest(spec)


class CompiledTrace:
    """A stored trace plus a lazy address list.

    ``packed`` may be an in-memory array (just compiled) or a read-only
    memmap (loaded from the trace cache) — consumers cannot tell the
    difference.  ``vas`` materialises the addresses once as plain
    Python ints (one C-level ``tolist`` pass) and is shared by every
    run of a sweep that reuses the trace.
    """

    __slots__ = ("packed", "spec", "source", "layout", "_vas")

    def __init__(
        self,
        packed: np.ndarray,
        spec: Dict[str, object],
        source: str = "built",
        layout: Optional[Dict[str, list]] = None,
    ):
        self.packed = packed
        self.spec = spec
        #: "built" (compiled in this process) or "cache" (memmapped).
        self.source = source
        #: The workload's VMA layout
        #: (:meth:`~repro.workloads.address_space.BuiltAddressSpace.to_layout`)
        #: when the cache entry carries one, else None.
        self.layout = layout
        self._vas: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.packed)

    @property
    def vas(self) -> List[int]:
        if self._vas is None:
            self._vas = self.packed.tolist()
        return self._vas


def pack_trace(vas: np.ndarray) -> np.ndarray:
    """Lower a raw address trace into its stored form: a read-only
    copy in :data:`TRACE_DTYPE`."""
    packed = np.array(vas, dtype=TRACE_DTYPE)
    packed.setflags(write=False)
    return packed


def compiled_trace_for(
    built,
    num_refs: int,
    trace_seed: int,
    cache=None,
) -> CompiledTrace:
    """Compile (or fetch) the packed trace for one built workload.

    The result is memoized on the workload instance, so the 8+ cells
    per workload of a serial sweep share one compiled array and one
    column materialisation.  With a :class:`TraceCache`, a miss stores
    the entry and later processes (or sweeps) memmap it instead of
    re-synthesizing.

    A workload built outside :func:`build_workload` (tests constructing
    :class:`BuiltWorkload` directly) has no (scale, seed) identity; it
    still compiles, but skips the on-disk cache — an unkeyed entry
    could alias a real one.
    """
    memo = getattr(built, "_packed_cache", None)
    key = (num_refs, trace_seed)
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            return hit
    scale = getattr(built, "scale", None)
    seed = getattr(built, "seed", None)
    if cache is not None and scale is not None and seed is not None:
        spec = trace_spec(built.info.name, scale, seed, num_refs, trace_seed)
        # The layout rides in the same entry: (name, scale, seed) key
        # it as fully as they key the trace.
        compiled = cache.load_or_build(
            spec,
            lambda: pack_trace(built.trace(num_refs, trace_seed)),
            layout_fn=built.space.to_layout,
        )
    else:
        spec = trace_spec(built.info.name, -1, -1, num_refs, trace_seed)
        compiled = CompiledTrace(pack_trace(built.trace(num_refs, trace_seed)), spec)
    if memo is not None:
        memo[key] = compiled
    return compiled


def memoize_trace(built, compiled: CompiledTrace) -> None:
    """Record ``compiled`` — a cache hit for ``built``'s identity — as
    ``built``'s trace, so :func:`compiled_trace_for` returns it without
    a second cache lookup."""
    spec = compiled.spec
    built._packed_cache[(spec["num_refs"], spec["trace_seed"])] = compiled
