"""The scheme descriptor protocol: one object fully describes a
translation scheme.

The paper's evaluation is a bake-off between translation schemes —
radix, elastic cuckoo (ECPT), flattened (FPT), ASAP, Midgard, the
learned index (LVM), and a single-access oracle.  Everything the
simulation stack needs to run one of them is captured here as a
:class:`SchemeDescriptor`:

* how to build the scheme's page-table structure for a simulator run,
* how to build the hardware walker that drives it,
* which trace loop the scheme uses (Midgard's virtually-indexed cache
  hierarchy walks only on LLC misses; everyone else translates every
  reference),
* which per-scheme statistics flow into the :class:`SimResult`
  (walk-cache hit rates, learned-index size/collision metrics, OS
  management cycles),
* capability flags (THP, virtualization host mappings, walk-cache
  kind) that the CLI's ``repro schemes`` listing and the virtualization
  layer consult instead of matching on name strings.

Descriptors are *stateless*: every hook receives the live
:class:`~repro.sim.simulator.TranslationStack` (a ``Simulator``, a
served ``Tenant`` or one core of a multicore run) or explicit
arguments, and stores nothing on ``self``, so a single registered
instance can serve any number of concurrent runs — and never needs
to pickle.  The parallel sweep ships scheme *names*, and workers
resolve them through :mod:`repro.schemes.registry` (see the pickling
notes there).

Adding a scheme means subclassing this, filling in the two factory
hooks, and calling :func:`repro.schemes.registry.register` — see
``examples/custom_scheme.py`` and docs/INTERNALS.md §10.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import SchemeCapabilityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports us)
    from repro.sim.results import SimResult
    from repro.sim.simulator import Simulator, TranslationStack


class SchemeDescriptor:
    """Base class for translation-scheme descriptors.

    Subclasses override the class attributes and the two factory hooks;
    the stats/run hooks have sensible defaults (standard trace loop, no
    walk cache, no extra stats).
    """

    #: Canonical scheme name — the string recorded in ``SimResult.scheme``
    #: and accepted everywhere a scheme is named.
    name: str = ""
    #: One-line human description for the ``repro schemes`` listing.
    description: str = ""
    #: Alternate accepted names (``registry.get`` resolves them).
    aliases: Tuple[str, ...] = ()
    #: True for the paper's headline four-scheme comparison
    #: (Figures 9-12); False for the section-7.5 extended studies.
    core: bool = False
    #: The scheme runs under transparent huge pages.
    supports_thp: bool = True
    #: The scheme can serve as the host dimension of a nested (2D)
    #: translation (:func:`repro.virt.nested.build_host_mapping`).
    supports_virtualization: bool = False
    #: Which walk-cache structure the walker carries:
    #: ``"pwc"`` (radix page-walk cache), ``"cwc"`` (cuckoo walk
    #: cache), ``"lwc"`` (LVM walk cache) or ``"none"``.
    walk_cache_kind: str = "none"
    #: Fault-injection plans wrap this scheme's allocator (allocation
    #: failures target the scheme's own structures, which must own a
    #: retry/backoff defense).
    wraps_allocator_under_faults: bool = False

    # -- construction hooks -------------------------------------------
    def make_page_table(self, sim: "TranslationStack"):
        """Build and return the scheme's page-table structure.

        Runs before the process/VMAs exist; ``sim.allocator``,
        ``sim.config`` and ``sim.lvm_config`` are available.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement make_page_table()"
        )

    def make_walker(self, sim: "TranslationStack"):
        """Build and return the hardware walker.

        Runs after the address space is populated; ``sim.page_table``
        and ``sim.hierarchy`` are available.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement make_walker()"
        )

    # -- the trace loop -----------------------------------------------
    def run_trace(self, sim: "Simulator", trace) -> Tuple[int, int]:
        """Drive the reference trace; returns (data_stall, mmu_cycles).

        The default is the standard loop — translate every reference
        through the TLB hierarchy, then access the data.  Midgard
        overrides this with the virtually-indexed-hierarchy loop.
        """
        return sim.run_standard(trace.vas)

    # -- per-scheme accounting ----------------------------------------
    def mgmt_cycles(self, sim: "Simulator") -> Tuple[float, Dict[str, float]]:
        """OS-side management cycles charged to the run, plus a
        breakdown.  Only LVM models management work (section 7.3)."""
        return 0.0, {}

    def fill_walk_cache_stats(self, sim: "Simulator", result: "SimResult") -> None:
        """Populate ``result.walk_cache_hit_rate``/``walk_cache_detail``
        from the scheme's walk-cache structure (if any)."""

    def fill_scheme_stats(self, sim: "Simulator", result: "SimResult") -> None:
        """Populate any scheme-specific result fields (LVM's index
        size/depth/collision metrics)."""

    # -- virtualization -----------------------------------------------
    def make_host_table(self, allocator, ptes):
        """Build the hypervisor's GPA->HPA mapping over ``ptes`` for the
        second dimension of a nested (2D) walk.

        Only schemes with ``supports_virtualization`` implement this;
        the default raises the capability error the virt layer surfaces.
        """
        raise SchemeCapabilityError(
            f"scheme {self.name!r} does not support virtualization host "
            "mappings"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class RadixWalkCacheStats:
    """Mixin: walk-cache stats for any walker carrying a radix-style
    :class:`~repro.mmu.walk_cache.RadixPWC` (radix, FPT, ASAP, Midgard).
    """

    walk_cache_kind = "pwc"

    def fill_walk_cache_stats(self, sim: "Simulator", result: "SimResult") -> None:
        pwc = sim.walker.pwc
        rates = pwc.hit_rate_by_level
        result.walk_cache_detail = {f"L{k}": v for k, v in rates.items()}
        lookups = sum(l.accesses for l in pwc.levels.values())
        hits = sum(l.hits for l in pwc.levels.values())
        result.walk_cache_hit_rate = hits / lookups if lookups else 0.0
