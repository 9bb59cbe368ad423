"""Per-tenant translation state: one address space behind a request API.

A :class:`Tenant` is the serving-layer analogue of one
:class:`~repro.sim.simulator.Simulator` run, reshaped from
"trace in, result out" into a long-lived state machine driven by
requests: ``mmap``, ``munmap``, ``translate`` (a batch of virtual
addresses) and ``stats``.  It is a
:class:`~repro.sim.simulator.TranslationStack` built with no VMAs —
scheme page table (via the scheme descriptor registry), process with
demand paging, TLB hierarchy + walker behind an
:class:`~repro.mmu.mmu.MMU`, built by the same code as a simulator
run's — so the numbers it serves are the numbers the paper's sweeps
produce.

Two properties carry the serving layer's robustness story:

* **Determinism.**  Every mutating operation is a pure function of the
  tenant's creation spec and the sequence of operations applied so
  far: allocators are bump cursors, the fault injector draws from
  seeded per-site streams, and nothing reads the clock.  Replaying a
  tenant's event journal through a fresh ``Tenant`` therefore rebuilds
  *bit-identical* state — the foundation of shard crash recovery
  (``docs/INTERNALS.md`` §13).
* **Containment.**  A tenant whose learned index degrades past the
  recovery ladder (injected corruption under ``--chaos``) flips to
  *quarantined*: every later request fails with a typed
  :class:`~repro.errors.TenantQuarantinedError` frame, and no other
  tenant — not even on the same shard — is affected.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

from repro.applog import record_digest
from repro.core.learned_index import LearnedIndex
from repro.errors import (
    AllocationError,
    CorruptionError,
    InvariantViolation,
    ProtocolError,
    RecoveryExhaustedError,
    TenantQuarantinedError,
)
from repro.faults import FaultPlan
from repro.kernel.aslr import USER_VA_BITS
from repro.kernel.vma import VMA
from repro.sim.config import SimConfig
from repro.sim.simulator import TranslationStack
from repro.types import BASE_PAGE_SHIFT, TranslationError

__all__ = ["Tenant", "TenantSpec", "QUARANTINE_ERRORS"]

#: Modeled failures that poison a tenant for good: detected corruption
#: that survived (or exhausted) the graceful-degradation ladder, a
#: violated kernel invariant, or translation structures that cannot be
#: maintained because allocation keeps failing past the retry-with-
#: backoff defense.  Per-request mistakes (an unmapped VA, a double
#: mmap) are *not* here — they fail one request, not the tenant.
QUARANTINE_ERRORS = (
    RecoveryExhaustedError,
    CorruptionError,
    InvariantViolation,
    AllocationError,
)

#: Ops a tenant accepts.  ``MUTATING_OPS`` advance the tenant's journal
#: sequence number and are replayed on recovery; read-only ops are not.
MUTATING_OPS = ("mmap", "munmap", "translate")
READONLY_OPS = ("stats", "digest")

#: Exclusive upper bounds of client-supplied addresses: a VA must lie in
#: the 47-bit user half, and a VMA's pages with it.
VA_LIMIT = 1 << USER_VA_BITS
VPN_LIMIT = VA_LIMIT >> BASE_PAGE_SHIFT


def _wire_int(value, what: str, lo: int, hi: int) -> int:
    """``value`` if it is a JSON integer (not a bool) in ``[lo, hi)``.

    Anything else — a float, a numeric string, an out-of-range address
    — is a client mistake, not something to coerce: it raises
    :class:`ProtocolError` before the op touches tenant state, so the
    journaled op fails identically live and on replay.
    """
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value < hi:
        raise ProtocolError(
            f"{what} must be an integer in [{lo}, {hi:#x}), got {value!r}"
        )
    return value


@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to (re)create a tenant, bit for bit.

    The spec is journaled as the tenant journal's header; its canonical
    digest is the journal fingerprint, so a journal can never be
    replayed into a tenant built differently.
    """

    name: str
    scheme: str = "lvm"
    thp: bool = False
    #: Per-tenant fault plan (``--chaos`` installs a server-wide
    #: default; tests poison one tenant and leave its neighbour clean).
    fault_plan: Optional[dict] = None
    #: Quota ceilings, enforced at the front end; carried in the spec
    #: so recovery restores the same limits.
    max_vmas: Optional[int] = None
    max_refs_per_sec: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(raw: dict) -> "TenantSpec":
        try:
            return TenantSpec(**raw)
        except TypeError as exc:
            raise ProtocolError(f"bad tenant spec {raw!r}: {exc}") from exc

    def fingerprint(self) -> str:
        return record_digest(self.to_dict())


@dataclass
class TenantCounters:
    """Serving-side counters, on top of the MMU/process stats."""

    ops: int = 0
    translates: int = 0
    refs: int = 0
    mmaps: int = 0
    munmaps: int = 0
    request_errors: int = 0


class Tenant(TranslationStack):
    """One hosted address space; see the module docstring."""

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        plan = FaultPlan(**spec.fault_plan) if spec.fault_plan is not None else None
        super().__init__(spec.scheme, SimConfig(thp=spec.thp, faults=plan))
        self.counters = TenantCounters()
        self.quarantined: Optional[str] = None  # the poisoning message
        #: Sequence number of the last applied mutating op (the shard
        #: sets this from the journal during replay and from the front
        #: end's per-tenant counter during live serving).
        self.last_seq = 0

    # -- the request surface ------------------------------------------

    def apply(self, op: str, args: dict) -> dict:
        """Apply one operation; returns the result payload.

        Mutating ops that raise a :data:`QUARANTINE_ERRORS` member
        leave the tenant quarantined: deterministic poison (the fault
        streams are seeded) reproduces identically on journal replay,
        so a recovered shard re-quarantines the same tenant at the
        same event.
        """
        if self.quarantined is not None:
            raise TenantQuarantinedError(
                f"tenant {self.spec.name!r} is quarantined: {self.quarantined}"
            )
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ProtocolError(f"unknown tenant op {op!r}")
        try:
            result = handler(**args)
        except QUARANTINE_ERRORS as exc:
            self.quarantined = f"{type(exc).__name__}: {exc}"
            self.counters.request_errors += 1
            raise TenantQuarantinedError(
                f"tenant {self.spec.name!r} quarantined by "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        except TypeError as exc:
            # Bad/missing argument names from the wire.
            raise ProtocolError(f"bad arguments for {op!r}: {exc}") from exc
        if op in MUTATING_OPS:
            # Read-only ops must not perturb counters: observable state
            # stays a pure function of the journaled (mutating) history,
            # which is what makes replayed digests bit-identical.
            self.counters.ops += 1
        return result

    # -- mutating ops --------------------------------------------------

    def _op_mmap(self, start_vpn: int, pages: int, name: str = "") -> dict:
        start_vpn = _wire_int(start_vpn, "mmap start_vpn", 0, VPN_LIMIT)
        pages = _wire_int(pages, "mmap pages", 1, VPN_LIMIT - start_vpn + 1)
        vma = VMA(start_vpn, pages, name=str(name))
        # A client mapping over an existing VMA is a bad *request*, not
        # corruption: pre-check so the kernel's OverlappingVMAError (an
        # InvariantViolation, which quarantines) never fires for it.
        for existing in self.process.address_space:
            if vma.overlaps(existing):
                raise TranslationError(
                    f"mmap [{vma.start_vpn}, {vma.end_vpn}) overlaps existing "
                    f"VMA [{existing.start_vpn}, {existing.end_vpn})"
                )
        self.process.mmap(vma, populate=True)
        self.counters.mmaps += 1
        return {
            "start_vpn": vma.start_vpn,
            "pages": vma.pages,
            "vmas": len(self.process.address_space),
            "mapped_pages": self.process.stats.mapped_pages,
        }

    def _op_munmap(self, start_vpn: int) -> dict:
        start_vpn = _wire_int(start_vpn, "munmap start_vpn", 0, VPN_LIMIT)
        self.process.munmap(start_vpn, mmu=self.mmu)
        self.counters.munmaps += 1
        return {
            "start_vpn": start_vpn,
            "vmas": len(self.process.address_space),
            "mapped_pages": self.process.stats.mapped_pages,
        }

    def _op_translate(self, vas: List[int]) -> dict:
        """Translate a batch of virtual addresses.

        The loop mirrors :meth:`Simulator.run_standard`'s semantics —
        translate, demand-fault on a miss, retry — so the per-tenant
        counters line up with what a sweep over the same references
        would report.  A VA outside every VMA is a per-request error
        (the batch stops there, state keeps everything already
        applied; deterministic, so replay reproduces it exactly).  A
        malformed batch fails whole, before any VA is translated.
        """
        if not isinstance(vas, list):
            raise ProtocolError("translate needs a list of virtual addresses")
        for va in vas:
            _wire_int(va, "translate VA", 0, VA_LIMIT)
        translate = self.mmu.translate
        fault = self.process.handle_fault
        injector = self.injector
        mmu_cycles = 0
        done = 0
        try:
            for va in vas:
                if injector is not None:
                    injector.on_reference(self)
                pte, tcycles = translate(va)
                if pte is None:
                    fault(va)
                    pte, more = translate(va)
                    tcycles += more
                    if pte is None:
                        raise TranslationError(f"unmappable VA {va:#x}")
                mmu_cycles += tcycles
                done += 1
        finally:
            self.counters.translates += 1
            self.counters.refs += done
        return {"refs": done, "mmu_cycles": mmu_cycles}

    # -- read-only ops -------------------------------------------------

    def _op_stats(self) -> dict:
        """Deterministic counter snapshot (the recovery acceptance test
        diffs this against an uninterrupted run's)."""
        mmu = self.mmu.stats
        proc = self.process.stats
        stats = {
            "tenant": self.spec.name,
            "scheme": self.scheme,
            "quarantined": self.quarantined,
            "last_seq": self.last_seq,
            "ops": self.counters.ops,
            "translates": self.counters.translates,
            "refs": self.counters.refs,
            "mmaps": self.counters.mmaps,
            "munmaps": self.counters.munmaps,
            "translations": mmu.translations,
            "l1_tlb_hits": mmu.l1_tlb_hits,
            "l2_tlb_hits": mmu.l2_tlb_hits,
            "walks": mmu.walks,
            "walk_cycles": mmu.walk_cycles,
            "walk_traffic": mmu.walk_traffic,
            "tlb_cycles": mmu.tlb_cycles,
            "demand_faults": proc.faults,
            "mapped_pages": proc.mapped_pages,
            "vmas": len(self.process.address_space),
            "shootdowns": proc.shootdowns,
            "table_bytes": self.page_table.table_bytes,
        }
        if self.injector is not None:
            stats["faults_injected"] = self.injector.total_injected
        if isinstance(self.page_table, LearnedIndex):
            stats["recoveries"] = self.page_table.stats.recoveries
            stats["index_size_bytes"] = self.page_table.index_size_bytes
        return stats

    def _op_digest(self) -> dict:
        """Canonical digest of mappings + counters: two tenants agree
        on this iff their observable state is identical (the recovery
        tests' strongest equality check).

        The mapping walk goes through the VMA layer + ``find`` and
        visits every translation, stepping over large pages.  Every
        table also lists its ``mappings()``, but the recorded digests
        hash what this walk sees (a translation no VMA covers is left
        out), so the walk stays.  ``find`` is a software lookup that
        charges and repairs nothing, so a digest leaves the tenant's
        state as it found it."""
        mappings = []
        total_pages = sum(vma.pages for vma in self.process.address_space)
        for vma in self.process.address_space:
            vpn = vma.start_vpn
            while vpn < vma.end_vpn:
                pte = self.page_table.find(vpn)
                if pte is not None and pte.vpn == vpn:
                    mappings.append((pte.vpn, pte.ppn, int(pte.page_size.pages_4k)))
                    vpn += pte.page_size.pages_4k
                else:
                    vpn += 1
        return {
            "digest": record_digest(
                {
                    "mappings": mappings,
                    "total_pages": total_pages,
                    # Recorded digests hash a stride of 1: keep it.
                    "stride": 1,
                    "stats": self._op_stats(),
                }
            ),
            "mappings": len(mappings),
        }
