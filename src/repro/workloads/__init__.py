"""Workload substrate: address-space builders and trace generators."""

from repro.workloads.address_space import (
    BuiltAddressSpace,
    SegmentSpec,
    build_address_space,
)
from repro.workloads.allocator import ALLOCATORS, JEMALLOC, TCMALLOC, AllocatorModel
from repro.workloads.compile import (
    GENERATOR_VERSION,
    TRACE_DTYPE,
    CompiledTrace,
    compiled_trace_for,
    pack_trace,
    trace_spec,
)
from repro.workloads.graph import GRAPH_KERNELS, GraphTracer
from repro.workloads.gups import gups_trace
from repro.workloads.kronecker import CSRGraph, kronecker_graph
from repro.workloads.layout import ArrayRef, HeapLayout, PagePool
from repro.workloads.memcached import memcached_trace, zipf_ranks
from repro.workloads.mummer import mummer_trace
from repro.workloads.trace_cache import (
    TraceCache,
    cache_for_config,
    default_cache_root,
    get_cache,
)
from repro.workloads.registry import (
    FOOTPRINT_SCALE,
    PRODUCTION_WORKLOADS,
    SUITE,
    WORKLOADS,
    BuiltWorkload,
    WorkloadInfo,
    build_workload,
)

__all__ = [
    "ALLOCATORS",
    "ArrayRef",
    "BuiltAddressSpace",
    "BuiltWorkload",
    "CSRGraph",
    "CompiledTrace",
    "GENERATOR_VERSION",
    "TRACE_DTYPE",
    "TraceCache",
    "cache_for_config",
    "compiled_trace_for",
    "default_cache_root",
    "get_cache",
    "pack_trace",
    "trace_spec",
    "FOOTPRINT_SCALE",
    "GRAPH_KERNELS",
    "GraphTracer",
    "HeapLayout",
    "JEMALLOC",
    "PRODUCTION_WORKLOADS",
    "PagePool",
    "SUITE",
    "SegmentSpec",
    "TCMALLOC",
    "WORKLOADS",
    "WorkloadInfo",
    "AllocatorModel",
    "build_address_space",
    "build_workload",
    "gups_trace",
    "kronecker_graph",
    "memcached_trace",
    "mummer_trace",
    "zipf_ranks",
]
