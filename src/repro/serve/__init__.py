"""Translation-as-a-service: a fault-tolerant multi-tenant serving
layer over the simulation stack.

The paper's §7.1 multi-tenancy study is a one-shot sweep; this package
turns it into a long-lived server.  ``repro serve`` listens on a unix
socket for length-prefixed JSON frames, hosts many tenant address
spaces (one translation scheme + process + MMU each), shards tenants
across supervised worker processes, and batches ``translate`` requests
into the simulator.  The robustness machinery is the point:

* **Admission control + load shedding** (``server.py``): bounded
  per-tenant and global queues, a reject-newest shed policy with typed
  :class:`~repro.errors.ServerOverloadedError` frames, and the quotas
  a tenant's spec sets (max VMAs, refs/sec token bucket) enforced at
  the front end.
* **Worker supervision + crash recovery** (``shards.py``/``shard.py``):
  heartbeat + deadline detection, kill-and-respawn of wedged shards,
  and bit-identical tenant reconstruction by replaying each tenant's
  checksummed event journal (``tenant_journal.py``).
* **Graceful degradation** (``tenant.py``): a tenant whose learned
  index is corrupted past the recovery ladder (``--chaos``) is
  quarantined with typed error frames; other tenants never notice.

Clients speak to the server through :class:`AsyncServeClient`
(``client.py``).  ``tests/test_serve.py`` gates each pillar end to end;
perfbench's serve-lvm workload measures the layer's speed.  See
``docs/INTERNALS.md`` §13 for the architecture walk-through.
"""

from repro.serve.client import AsyncServeClient
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_error,
    error_payload,
    read_frame,
    read_frame_sock,
    write_frame,
    write_frame_sock,
)
from repro.serve.server import ServePolicy, TranslationServer
from repro.serve.shards import ShardManager
from repro.serve.tenant import Tenant, TenantSpec
from repro.serve.tenant_journal import TenantJournal
from repro.serve.traffic import TrafficConfig, TrafficReport, run_traffic

__all__ = [
    "AsyncServeClient",
    "MAX_FRAME_BYTES",
    "ServePolicy",
    "ShardManager",
    "Tenant",
    "TenantJournal",
    "TenantSpec",
    "TrafficConfig",
    "TrafficReport",
    "TranslationServer",
    "decode_error",
    "error_payload",
    "read_frame",
    "read_frame_sock",
    "run_traffic",
    "write_frame",
    "write_frame_sock",
]
