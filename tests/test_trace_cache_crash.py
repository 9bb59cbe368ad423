"""Crash rules of the trace cache (`repro.workloads.trace_cache`).

`TraceCache.store` writes the payload and the sidecar to temp files,
then renames the payload into place, then the sidecar.  Whatever a
crash leaves behind:

* a cut after the payload temp file is written, or between the two
  renames, leaves no sidecar, so the entry is a miss;
* a sidecar or a payload truncated at any byte offset fails its
  checks, so the entry is a miss and is deleted (every offset of the
  payload is cut; of the sidecar, a seeded sample with both ends);
* after any cut, ``load_or_build`` rebuilds the bit-identical trace
  and a later ``get`` hits it; no cut ever yields a different trace;
* ``gc()`` removes the temp files a cut leaves behind.
"""

import random

import numpy as np
import pytest

from repro.workloads import trace_cache
from repro.workloads.compile import pack_trace, trace_spec
from repro.workloads.registry import build_workload
from repro.workloads.trace_cache import TraceCache

REFS = 64
TRACE_SEED = 3


class Crash(BaseException):
    """A process dying mid-store: nothing in ``store`` catches it."""


@pytest.fixture(scope="module")
def entry():
    """(spec, packed trace, layout) of one small real entry."""
    built = build_workload("gups", scale=256)
    spec = trace_spec("gups", 256, 0, REFS, TRACE_SEED)
    return spec, pack_trace(built.trace(REFS, TRACE_SEED)), built.space.to_layout()


def _store_until_crash(monkeypatch, root, entry, cut):
    """Run ``store`` and kill it at ``cut``: once the payload temp file
    is written (in the layout checksum, which comes next), at the first
    ``os.replace`` (both temp files written) or at the second (payload
    renamed into place, sidecar not)."""
    replaced = []
    real_replace = trace_cache.os.replace

    def replace(src, dst):
        replaced.append(dst)
        if cut == f"replace-{len(replaced)}":
            raise Crash()
        real_replace(src, dst)

    def crash(*_args):
        raise Crash()

    spec, packed, layout = entry
    with monkeypatch.context() as patch:
        patch.setattr(trace_cache.os, "replace", replace)
        if cut == "payload-temp":
            patch.setattr(trace_cache, "_text_sha256", crash)
        with pytest.raises(Crash):
            TraceCache(root).store(spec, packed, layout)


def _assert_recovers(root, entry):
    """A fresh cache misses, rebuilds the same trace, then hits it."""
    spec, packed, layout = entry
    assert TraceCache(root).get(spec) is None
    cache = TraceCache(root)
    rebuilt = cache.load_or_build(spec, packed.copy, lambda: layout)
    assert (rebuilt.source, cache.builds) == ("built", 1)
    assert np.array_equal(rebuilt.packed, packed)
    again = TraceCache(root).get(spec)
    assert again is not None and again.source == "cache"
    assert np.array_equal(again.packed, packed) and again.layout == layout


def _kinds(root):
    """The files in ``root`` by kind: ``.npy`` and ``.json`` for an
    entry's payload and sidecar, ``.npy.tmp`` and ``.json.tmp`` for
    temp files (``.<digest>.<pid>.npy.tmp``)."""
    return sorted("".join(path.suffixes[-2:]) for path in root.iterdir())


@pytest.mark.parametrize("cut, left", [
    ("payload-temp", [".npy.tmp"]),
    ("replace-1", [".json.tmp", ".npy.tmp"]),
    ("replace-2", [".json.tmp", ".npy"]),
])
class TestCutStore:
    def test_is_a_miss_then_rebuilds(self, tmp_path, monkeypatch, entry, cut, left):
        root = tmp_path / "cache"
        _store_until_crash(monkeypatch, root, entry, cut)
        assert _kinds(root) == left
        _assert_recovers(root, entry)

    def test_gc_removes_what_the_cut_left(self, tmp_path, monkeypatch, entry, cut, left):
        root = tmp_path / "cache"
        _store_until_crash(monkeypatch, root, entry, cut)
        size = sum(p.stat().st_size for p in root.iterdir())
        assert TraceCache(root).gc() == {"entries": 0, "bytes": size}
        assert list(root.iterdir()) == []


def _offsets(size, sample, seed):
    """Every offset below ``size`` when there are at most ``sample``
    of them, else a seeded sample that includes both ends."""
    if size <= sample:
        return list(range(size))
    picks = random.Random(seed).sample(range(1, size - 1), sample - 2)
    return sorted({0, size - 1, *picks})


@pytest.mark.parametrize("suffix", [".json", ".npy"], ids=["sidecar", "payload"])
def test_truncated_file_at_every_offset(tmp_path, entry, suffix):
    spec, packed, layout = entry
    root = tmp_path / "cache"
    TraceCache(root).store(spec, packed, layout)
    (path,) = root.glob(f"*{suffix}")
    whole = {p: p.read_bytes() for p in root.iterdir()}
    for offset in _offsets(len(whole[path]), 700, seed=len(whole[path])):
        for p, data in whole.items():
            p.write_bytes(data)
        path.write_bytes(whole[path][:offset])
        cache = TraceCache(root)
        assert cache.get(spec) is None, offset
        assert cache.invalidated == 1, offset
        assert list(root.iterdir()) == [], offset
        rebuilt = cache.load_or_build(spec, packed.copy, lambda: layout)
        assert np.array_equal(rebuilt.packed, packed), offset
        assert {p: p.read_bytes() for p in root.iterdir()}.keys() == whole.keys()
        hit = TraceCache(root).get(spec)
        assert hit is not None and np.array_equal(hit.packed, packed), offset
