"""Tenant state pinned across refactors.

``tests/golden/tenant_digests.json`` holds the ``digest`` op's value
after one fixed op script, for every built-in scheme with 4 KB pages
and with THP, plus LVM under a fault plan.  The script mirrors the
serve traffic's layout: a 512-page working set at VPN 2^20, a 64-page
churn VMA at 2^24, seeded translate batches over both, and a munmap +
remap of the churn VMA every tenth batch.

Regenerate the file only for a change that is meant to move tenant
state: ``PYTHONPATH=src python tests/test_tenant_golden.py``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.serve.tenant import Tenant, TenantSpec
from repro.sim import EXTENDED_SCHEMES

GOLDEN_PATH = Path(__file__).parent / "golden" / "tenant_digests.json"

NEAR_VPN, NEAR_PAGES = 1 << 20, 512
FAR_VPN, FAR_PAGES = 1 << 24, 64
BATCHES, BATCH_VAS, REMAP_EVERY = 30, 32, 10
SCRIPT_SEED = 20
FAULT_PLAN = {"seed": 5, "pte_bitflip_rate": 0.01, "walk_cache_corrupt_rate": 0.01}


def op_script():
    """The fixed op stream every pinned tenant replays."""
    rng = random.Random(SCRIPT_SEED)
    yield "mmap", {"start_vpn": NEAR_VPN, "pages": NEAR_PAGES, "name": "near"}
    yield "mmap", {"start_vpn": FAR_VPN, "pages": FAR_PAGES, "name": "far"}
    for batch in range(1, BATCHES + 1):
        vas = []
        for _ in range(BATCH_VAS):
            base, pages = (
                (NEAR_VPN, NEAR_PAGES) if rng.random() < 0.75 else (FAR_VPN, FAR_PAGES)
            )
            vas.append(((base + rng.randrange(pages)) << 12) + rng.randrange(4096))
        yield "translate", {"vas": vas}
        if batch % REMAP_EVERY == 0:
            yield "munmap", {"start_vpn": FAR_VPN}
            yield "mmap", {"start_vpn": FAR_VPN, "pages": FAR_PAGES, "name": "far"}


def cases():
    """(key, spec) for every pinned tenant."""
    for scheme in EXTENDED_SCHEMES:
        for thp in (False, True):
            yield f"{scheme}/{'thp' if thp else '4k'}", TenantSpec(
                name="golden", scheme=scheme, thp=thp
            )
    yield "lvm/4k/faults", TenantSpec(
        name="golden", scheme="lvm", fault_plan=dict(FAULT_PLAN)
    )


def digest_after_script(spec: TenantSpec) -> str:
    tenant = Tenant(spec)
    for op, args in op_script():
        tenant.apply(op, args)
    return tenant.apply("digest", {})["digest"]


def test_digest_is_read_only_under_faults():
    """``digest`` is not journaled, so it must leave no trace: a tenant
    that also serves a digest after every 5th op ends where the
    undisturbed one does, counters included.  Under a fault plan a
    software lookup that repaired leaves would count recoveries."""
    spec = TenantSpec(name="golden", scheme="lvm", fault_plan=dict(FAULT_PLAN))
    undisturbed, digested = Tenant(spec), Tenant(spec)
    for i, (op, args) in enumerate(op_script(), start=1):
        undisturbed.apply(op, args)
        digested.apply(op, args)
        if i % 5 == 0:
            digested.apply("digest", {})
    assert digested.apply("stats", {}) == undisturbed.apply("stats", {})
    assert digested.apply("digest", {}) == undisturbed.apply("digest", {})


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key for key, _ in cases())


@pytest.mark.parametrize("key,spec", list(cases()), ids=[k for k, _ in cases()])
def test_tenant_digest_matches_golden(golden, key, spec):
    assert digest_after_script(spec) == golden[key]


if __name__ == "__main__":
    recorded = {key: digest_after_script(spec) for key, spec in cases()}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} digests to {GOLDEN_PATH}", file=sys.stderr)
