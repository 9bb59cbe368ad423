"""Content-addressed on-disk cache for compiled traces.

Entries live under one directory (``$REPRO_CACHE_DIR`` or
``~/.cache/repro/traces``) as a pair of files per trace::

    <sha256-of-spec>.npy    the trace: one little-endian int64
                            virtual address per reference (np.save
                            format)
    <sha256-of-spec>.json   sidecar: spec, payload checksum, sizes,
                            and the workload's VMA layout with its
                            own checksum

The key is the SHA-256 of the canonical-JSON trace spec (workload,
scale, seeds, refs, generator version, dtype — see
:func:`repro.workloads.compile.trace_spec`), hashed by the same
:func:`repro.applog.record_digest` that fingerprints a sweep's config:
identical inputs hash to the identical entry, and *any* input change —
including a ``GENERATOR_VERSION`` bump — lands on a fresh key, so stale
entries can never be returned, only orphaned (``gc`` reclaims them).

Durability and trust rules:

* **Atomic writes.**  Both files are written to a temp name in the
  cache directory, fsync'd, then ``os.replace``d — payload first, then
  the sidecar.  A reader never sees a half-written entry: no sidecar
  means no entry.
* **Verify, then memmap.**  ``load`` re-hashes the payload bytes and
  checks them against the sidecar before handing out
  ``np.load(..., mmap_mode="r")``.  A truncated, bit-flipped or
  unparsable entry is deleted and reported as a miss — rebuilt, never
  trusted.  The layout, stored as JSON text, is checked against its own
  SHA-256 the same way.  An entry without a layout is still a valid
  trace; the sweep just builds the workload for it.
* **Read-only sharing.**  Loaded entries are read-only memmaps; sweep
  workers forked after the parent's cache fill share the parent's
  mapping copy-on-write (zero-copy), and ``spawn`` workers mapping the
  same file share the OS page cache.  Entries are never mutated in
  place, so a mapping stays valid even if ``gc`` unlinks the file
  underneath it (POSIX keeps the inode alive until unmapped).

The cache is an accelerator, not a correctness layer: with it disabled
(``SimConfig.use_trace_cache=False``, ``--no-trace-cache`` or
``REPRO_TRACE_CACHE=0``) every result is bit-identical, just slower.
An unusable cache directory (read-only home, exotic CI sandbox)
degrades the same way: one warning, then cacheless operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.workloads.compile import (
    TRACE_DTYPE,
    CompiledTrace,
    spec_digest,
)

__all__ = ["TraceCache", "cache_for_config", "default_cache_root", "get_cache"]

#: Environment override for the cache directory (the CLI documents it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Kill switch: ``REPRO_TRACE_CACHE=0`` disables the on-disk cache even
#: where the config enables it (in-memory compilation still happens).
CACHE_ENABLE_ENV = "REPRO_TRACE_CACHE"

#: Sidecar schema version — bump on incompatible sidecar changes.
SIDECAR_VERSION = 1


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "traces"


class TraceCache:
    """One cache directory plus per-process counters.

    Counters accumulate over the instance's lifetime: ``hits`` (entry
    verified and memmapped), ``builds`` (entry compiled and stored),
    ``invalidated`` (corrupt entry deleted — each one also shows up as
    a subsequent build).  :meth:`stats` snapshots them for reporting.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.builds = 0
        self.invalidated = 0

    # -- key/path plumbing --------------------------------------------

    def _paths(self, digest: str):
        return self.root / f"{digest}.npy", self.root / f"{digest}.json"

    def stats(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "hits": self.hits,
            "builds": self.builds,
            "invalidated": self.invalidated,
        }

    # -- read side ----------------------------------------------------

    def get(self, spec: Dict[str, object]) -> Optional[CompiledTrace]:
        """Verified load of one entry, or None (missing or corrupt).

        Corrupt entries — torn sidecar, wrong length, checksum
        mismatch, unloadable payload, alien dtype — are unlinked and
        counted in ``invalidated`` so the caller rebuilds from source.
        """
        digest = spec_digest(spec)
        npy_path, meta_path = self._paths(digest)
        if not meta_path.exists():
            return None
        if not npy_path.exists():
            # A sidecar whose payload is gone is what a concurrent
            # ``gc`` looks like mid-unlink (payload first, sidecar
            # next): a plain miss, not corruption — the other process
            # is already cleaning up, and a rebuild re-stores both.
            return None
        try:
            meta = json.loads(meta_path.read_text())
        except FileNotFoundError:
            return None  # entry vanished between exists() and read
        except (OSError, ValueError):
            return self._invalidate(digest)
        layout_text = meta.get("layout")
        if (
            meta.get("sidecar_version") != SIDECAR_VERSION
            or meta.get("digest") != digest
            or meta.get("layout_sha256") != _text_sha256(layout_text)
        ):
            return self._invalidate(digest)
        try:
            blob = npy_path.read_bytes()
        except FileNotFoundError:
            return None  # concurrent gc beat us to the payload
        except OSError:
            return self._invalidate(digest)
        if (
            len(blob) != meta.get("nbytes")
            or hashlib.sha256(blob).hexdigest() != meta.get("sha256")
        ):
            return self._invalidate(digest)
        try:
            packed = np.load(npy_path, mmap_mode="r")
        except Exception:
            return self._invalidate(digest)
        if packed.dtype != TRACE_DTYPE or packed.ndim != 1:
            return self._invalidate(digest)
        try:
            layout = None if layout_text is None else json.loads(layout_text)
        except (TypeError, ValueError):
            return self._invalidate(digest)
        self.hits += 1
        return CompiledTrace(packed, spec, source="cache", layout=layout)

    def _invalidate(self, digest: str) -> None:
        self.invalidated += 1
        for path in self._paths(digest):
            try:
                path.unlink()
            except OSError:
                pass
        return None

    # -- write side ---------------------------------------------------

    def store(
        self,
        spec: Dict[str, object],
        packed: np.ndarray,
        layout: Optional[Dict[str, list]] = None,
    ) -> CompiledTrace:
        """Atomically persist one compiled trace, and the workload's VMA
        layout if given (in the same sidecar write); returns it wrapped.

        A cache that cannot write (full or read-only filesystem) warns
        once per process and degrades to in-memory operation — the
        sweep's numbers never depend on the cache.
        """
        digest = spec_digest(spec)
        npy_path, meta_path = self._paths(digest)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp_npy = self.root / f".{digest}.{os.getpid()}.npy.tmp"
            with open(tmp_npy, "wb") as fh:
                np.save(fh, packed)
                fh.flush()
                os.fsync(fh.fileno())
            blob = tmp_npy.read_bytes()
            meta = {
                "sidecar_version": SIDECAR_VERSION,
                "digest": digest,
                "spec": spec,
                "refs": int(len(packed)),
                "nbytes": len(blob),
                "sha256": hashlib.sha256(blob).hexdigest(),
                "created": time.time(),
            }
            if layout is not None:
                # Stored as JSON text, so that its checksum covers the
                # exact bytes a reader parses.
                text = json.dumps(layout, separators=(",", ":"))
                meta["layout"] = text
                meta["layout_sha256"] = _text_sha256(text)
            tmp_meta = self.root / f".{digest}.{os.getpid()}.json.tmp"
            with open(tmp_meta, "w") as fh:
                # One C-encoded string: ``json.dump`` encodes its
                # argument piecewise in pure Python.
                fh.write(json.dumps(meta, sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            # Payload lands before the sidecar: an entry with a sidecar
            # always has its payload (the reverse half-state is just a
            # miss).
            os.replace(tmp_npy, npy_path)
            os.replace(tmp_meta, meta_path)
        except OSError as exc:
            _warn_once(f"trace cache unusable at {self.root}: {exc}")
        self.builds += 1
        return CompiledTrace(packed, spec, source="built", layout=layout)

    def load_or_build(
        self,
        spec: Dict[str, object],
        build_fn: Callable[[], np.ndarray],
        layout_fn: Optional[Callable[[], Dict[str, list]]] = None,
    ) -> CompiledTrace:
        """The verified entry for ``spec``, or a fresh one from
        ``build_fn`` (plus ``layout_fn``'s layout, when given)."""
        compiled = self.get(spec)
        if compiled is not None:
            return compiled
        return self.store(
            spec, build_fn(), layout_fn() if layout_fn is not None else None
        )

    # -- maintenance (the ``repro cache`` subcommand) -----------------

    def _scan(self, pattern: str) -> List[Path]:
        """``glob`` that tolerates the directory (or entries in it)
        vanishing mid-scan — another process's ``gc`` racing ours must
        look like an empty result, not a FileNotFoundError.  (Python
        3.12 made ``Path.glob`` swallow this itself; we support
        older interpreters.)"""
        found: List[Path] = []
        try:
            for path in self.root.glob(pattern):
                found.append(path)
        except OSError:
            pass
        return found

    def entries(self) -> List[Dict[str, object]]:
        """Sidecar summaries of every entry, newest first."""
        rows = []
        if not self.root.is_dir():
            return rows
        for meta_path in sorted(self._scan("*.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
            spec = meta.get("spec", {})
            rows.append(
                {
                    "digest": meta.get("digest", meta_path.stem),
                    "workload": spec.get("workload", "?"),
                    "num_refs": spec.get("num_refs", 0),
                    "trace_seed": spec.get("trace_seed", 0),
                    "scale": spec.get("scale", 0),
                    "generator_version": spec.get("generator_version", 0),
                    "nbytes": meta.get("nbytes", 0),
                    "created": meta.get("created", 0.0),
                }
            )
        rows.sort(key=lambda r: r["created"], reverse=True)
        return rows

    @staticmethod
    def _unlink_quietly(path: Path) -> "tuple[bool, int]":
        """Unlink ``path`` if it still exists; returns (removed, bytes
        reclaimed).  An entry vanishing between the scan and the unlink
        (concurrent ``gc``, a sweep invalidating a corrupt entry) is a
        no-op, never an error — and is not counted as *our* removal."""
        try:
            size = path.stat().st_size
        except OSError:
            return False, 0
        try:
            path.unlink()
        except OSError:
            return False, 0
        return True, size

    def gc(self) -> Dict[str, int]:
        """Delete every entry (plus orphaned payloads and stale temp
        files); returns {"entries": n, "bytes": reclaimed}.

        Safe to run concurrently with sweeps and with other ``gc``
        invocations: files vanishing mid-scan are skipped, and the
        returned counts cover only what *this* call actually removed.
        """
        removed = 0
        reclaimed = 0
        if not self.root.is_dir():
            return {"entries": 0, "bytes": 0}
        for meta_path in self._scan("*.json"):
            npy_path = meta_path.with_suffix(".npy")
            _, payload_bytes = self._unlink_quietly(npy_path)
            reclaimed += payload_bytes
            # The sidecar is the entry: it exists iff the entry does,
            # so it alone drives the removed count.
            was_entry, sidecar_bytes = self._unlink_quietly(meta_path)
            reclaimed += sidecar_bytes
            if was_entry:
                removed += 1
        for stray in self._scan("*.npy") + self._scan(".*.tmp"):
            _, stray_bytes = self._unlink_quietly(stray)
            reclaimed += stray_bytes
        return {"entries": removed, "bytes": reclaimed}


def _text_sha256(text) -> Optional[str]:
    """SHA-256 of a sidecar text field, or None when it is absent."""
    if text is None:
        return None
    return hashlib.sha256(str(text).encode("utf-8")).hexdigest()


_WARNED: set = set()


def _warn_once(message: str) -> None:
    if message not in _WARNED:
        _WARNED.add(message)
        print(f"repro: warning: {message}", file=sys.stderr)


#: One TraceCache per resolved directory per process, so counters
#: aggregate naturally across a sweep's compile/load calls.
_CACHES: Dict[Path, TraceCache] = {}


def get_cache(root: Union[str, Path, None] = None) -> TraceCache:
    path = Path(root) if root is not None else default_cache_root()
    cache = _CACHES.get(path)
    if cache is None:
        cache = TraceCache(path)
        _CACHES[path] = cache
    return cache


def cache_for_config(config) -> Optional[TraceCache]:
    """The cache a run under ``config`` should use, or None.

    None when the config opts out (``use_trace_cache=False``) or the
    ``REPRO_TRACE_CACHE=0`` kill switch is set; the compiler then runs
    purely in memory.
    """
    if not getattr(config, "use_trace_cache", True):
        return None
    if os.environ.get(CACHE_ENABLE_ENV, "").strip().lower() in (
        "0",
        "false",
        "no",
        "off",
    ):
        return None
    return get_cache(getattr(config, "trace_cache_dir", None))
