"""Trace compiler: lower a :class:`BuiltWorkload` trace into one packed
NumPy structured array.

The sweep behind every figure replays the same reference traces through
hundreds of (scheme × workload × thp) cells.  The raw generators return
a bare ``int64`` array of virtual addresses.  The compiler packs it,
with the VPN, access kind and stride of each reference, into a single
contiguous structured array (:data:`TRACE_DTYPE`), so that:

* the simulator's per-reference loop reads one memoized column view
  (``trace.vas``) shared by every run that reuses the trace;
* the array round-trips losslessly through ``.npy`` on disk
  (:mod:`repro.workloads.trace_cache`), where sweep workers memmap it
  read-only — zero-copy under ``fork``, shared OS page cache under
  ``spawn`` — instead of re-synthesizing the trace per worker.

Identity discipline mirrors the run journal: a compiled trace is fully
described by its *spec* (workload name, footprint scale, workload seed,
reference count, trace seed) plus :data:`GENERATOR_VERSION`, hashed as
canonical JSON.  Bump the version whenever any generator's output
changes; every cached entry is then invalidated at once.

Bit-identity guarantee: the ``va`` column is exactly the array the raw
generator returned, so ``CompiledTrace.vas`` equals its ``tolist()``
element for element — the golden scheme cells reproduce through this
path (asserted in tests/test_trace_cache.py).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

import numpy as np

from repro.types import BASE_PAGE_SIZE

__all__ = [
    "ACCESS_KIND_CODES",
    "ACCESS_KIND_NAMES",
    "CompiledTrace",
    "GENERATOR_VERSION",
    "TRACE_DTYPE",
    "compiled_trace_for",
    "memoize_trace",
    "pack_trace",
    "spec_digest",
    "trace_spec",
]

#: Bump whenever any trace generator's output — or any workload's VMA
#: layout, which cache entries also carry — changes for the same
#: (workload, scale, seeds, refs) inputs.  The version is part of every
#: cache key, so a bump invalidates all on-disk entries at once.
GENERATOR_VERSION = 1

_PAGE_SHIFT = BASE_PAGE_SIZE.bit_length() - 1  # 4 KB -> 12

#: One record per memory reference.  Fixed little-endian layout so a
#: cached ``.npy`` entry is byte-stable across hosts:
#:   va     — the generated virtual address (the raw trace);
#:   vpn    — ``va >> 12``; kept so the cache format stays unchanged,
#:            the simulator no longer reads it;
#:   kind   — access-kind code (:data:`ACCESS_KIND_CODES`);
#:   stride — signed byte delta from the previous reference (0 for the
#:            first), the regularity signal of the Figure 2 study.
TRACE_DTYPE = np.dtype(
    [
        ("va", "<i8"),
        ("vpn", "<i8"),
        ("kind", "u1"),
        ("stride", "<i8"),
    ]
)

#: Access-kind code per workload *kind* (the generators do not tag
#: individual references, so the kind is uniform per trace): graph
#: kernels, MUMmer and the production spaces read; GUPS is the classic
#: read-modify-write update; memcached mixes GET/SET traffic.
ACCESS_KIND_CODES: Dict[str, int] = {
    "graph": 0,
    "mummer": 0,
    "production": 0,
    "gups": 1,
    "memcached": 2,
}
ACCESS_KIND_NAMES = {0: "read", 1: "update", 2: "mixed"}


def _canonical(payload) -> str:
    """Canonical JSON — the same byte-stable form the run journal
    fingerprints with (:mod:`repro.sim.journal`)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


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
    ``dtype`` pins the record layout so a layout change can never alias
    an old entry.
    """
    return {
        "workload": workload,
        "scale": scale,
        "workload_seed": workload_seed,
        "num_refs": num_refs,
        "trace_seed": trace_seed,
        "generator_version": GENERATOR_VERSION,
        # json round-trip normalises the descr tuples to lists so the
        # spec compares equal to its deserialized form.
        "dtype": json.loads(json.dumps(TRACE_DTYPE.descr)),
    }


def spec_digest(spec: Dict[str, object]) -> str:
    """SHA-256 of the canonical-JSON spec — the cache key."""
    return hashlib.sha256(_canonical(spec).encode("utf-8")).hexdigest()


class CompiledTrace:
    """A packed trace plus a lazy address list.

    ``packed`` may be an in-memory array (just compiled) or a read-only
    memmap (loaded from the trace cache) — consumers cannot tell the
    difference.  ``vas`` materialises the address column once as plain
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
            self._vas = self.packed["va"].tolist()
        return self._vas


def pack_trace(vas: np.ndarray, kind_code: int) -> np.ndarray:
    """Lower a raw address trace into the packed record layout."""
    vas = np.ascontiguousarray(vas, dtype=np.int64)
    packed = np.empty(len(vas), dtype=TRACE_DTYPE)
    packed["va"] = vas
    packed["vpn"] = vas >> _PAGE_SHIFT
    packed["kind"] = kind_code
    if len(vas):
        packed["stride"][0] = 0
        np.subtract(vas[1:], vas[:-1], out=packed["stride"][1:])
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
    kind_code = ACCESS_KIND_CODES.get(built.info.kind, 0)
    scale = getattr(built, "scale", None)
    seed = getattr(built, "seed", None)
    if cache is not None and scale is not None and seed is not None:
        spec = trace_spec(built.info.name, scale, seed, num_refs, trace_seed)
        # The layout rides in the same entry: (name, scale, seed) key
        # it as fully as they key the trace.
        compiled = cache.load_or_build(
            spec,
            lambda: pack_trace(built.trace(num_refs, trace_seed), kind_code),
            layout_fn=built.space.to_layout,
        )
    else:
        spec = trace_spec(built.info.name, -1, -1, num_refs, trace_seed)
        compiled = CompiledTrace(
            pack_trace(built.trace(num_refs, trace_seed), kind_code), spec
        )
    if memo is not None:
        memo[key] = compiled
    return compiled


def memoize_trace(built, compiled: CompiledTrace) -> None:
    """Record ``compiled`` — a cache hit for ``built``'s identity — as
    ``built``'s trace, so :func:`compiled_trace_for` returns it without
    a second cache lookup."""
    spec = compiled.spec
    built._packed_cache[(spec["num_refs"], spec["trace_seed"])] = compiled
