"""Serving-layer tests: protocol, tenants, journals, and the three
robustness pillars end to end (shed, quarantine, kill + bit-identical
recovery).

The end-to-end tests start a real :class:`TranslationServer` — real
unix socket, real forked shard workers, real write-ahead journals — in
a temp directory and drive it with :class:`AsyncServeClient`.  They are
sized for CI (hundreds of requests); ``benchmarks/bench_serve.py``
runs the same scenarios at acceptance scale.
"""

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (
    ProtocolError,
    QuotaExceededError,
    ServeError,
    ServerOverloadedError,
    TenantExistsError,
    TenantQuarantinedError,
    TranslationError,
    UnknownTenantError,
)
from repro.serve.client import AsyncServeClient
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_error,
    encode_frame,
    error_payload,
    read_frame_sock,
    write_frame_sock,
)
from repro.serve.server import ServePolicy, TranslationServer
from repro.serve.shard import ShardWorker
from repro.serve.tenant import Tenant, TenantSpec
from repro.serve.tenant_journal import TenantJournal, journal_path, list_tenants
from repro.serve.traffic import TrafficConfig, run_traffic

#: Enough allocation failures to exhaust the LVM retry defense and
#: quarantine, with a little translation-path corruption on top.
POISON = {
    "seed": 1,
    "alloc_fail_rate": 0.9,
    "pte_bitflip_rate": 0.02,
    "model_perturb_rate": 0.02,
}


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run(coro):
    return asyncio.run(coro)


# -- protocol -----------------------------------------------------------

class TestProtocol:
    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"id": 7, "op": "translate", "args": {"vas": [1, 2]}}
            write_frame_sock(a, payload)
            assert read_frame_sock(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none_torn_frame_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert read_frame_sock(b) is None  # EOF on a frame boundary
        finally:
            b.close()
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"op": "ping"})[:5])  # header + 1 byte
            a.close()
            with pytest.raises(ProtocolError, match="inside a frame"):
                read_frame_sock(b)
        finally:
            b.close()

    def test_oversized_declared_length_is_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="limit"):
                read_frame_sock(b)
        finally:
            a.close()
            b.close()

    def test_non_dict_payload_is_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"[1,2,3]"
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ProtocolError, match="JSON object"):
                read_frame_sock(b)
        finally:
            a.close()
            b.close()

    def test_typed_errors_survive_the_wire(self):
        exc = ServerOverloadedError("global queue full")
        revived = decode_error(error_payload(exc))
        assert isinstance(revived, ServerOverloadedError)
        assert "global queue full" in str(revived)
        # Unknown types degrade to ServeError, name preserved.
        fallback = decode_error({"type": "FutureError", "message": "hm"})
        assert isinstance(fallback, ServeError)
        assert "FutureError" in str(fallback)


# -- tenants ------------------------------------------------------------

def _ops(n=40, base=1 << 20):
    yield "mmap", {"start_vpn": base, "pages": 128, "name": "ws"}
    for i in range(n):
        yield "translate", {"vas": [(base + (i * 7) % 128) * 4096]}
    yield "munmap", {"start_vpn": base}
    yield "mmap", {"start_vpn": base, "pages": 64, "name": "ws2"}


class TestTenant:
    def test_state_is_a_pure_function_of_the_op_stream(self):
        digests = []
        for _ in range(2):
            tenant = Tenant(TenantSpec(name="t", scheme="lvm"))
            for op, args in _ops():
                tenant.apply(op, args)
            digests.append(tenant.apply("digest", {}))
        assert digests[0] == digests[1]
        assert digests[0]["digest"]

    def test_overlapping_mmap_fails_the_request_not_the_tenant(self):
        tenant = Tenant(TenantSpec(name="t"))
        tenant.apply("mmap", {"start_vpn": 100, "pages": 64})
        with pytest.raises(TranslationError):
            tenant.apply("mmap", {"start_vpn": 130, "pages": 8})
        assert tenant.quarantined is None
        assert tenant.apply("stats", {})["vmas"] == 1

    def test_poison_past_the_recovery_ladder_quarantines(self):
        tenant = Tenant(TenantSpec(name="t", scheme="lvm", fault_plan=POISON))
        with pytest.raises(TenantQuarantinedError):
            # Allocation-heavy churn: at alloc_fail_rate=0.9 the LVM
            # retry-with-backoff defense exhausts within a few rounds.
            for i in range(50):
                base = (1 << 20) + i * 1024
                tenant.apply("mmap", {"start_vpn": base, "pages": 256})
                tenant.apply(
                    "translate",
                    {"vas": [(base + j) * 4096 for j in range(0, 256, 7)]},
                )
        assert tenant.quarantined is not None
        # Quarantine is sticky: every later mutating op fails typed.
        with pytest.raises(TenantQuarantinedError):
            tenant.apply("translate", {"vas": [4096]})
        # ... and read-only ops too: a poisoned tenant's state is not
        # to be trusted, post-mortem happens via the journal.
        with pytest.raises(TenantQuarantinedError):
            tenant.apply("stats", {})


# -- tenant journals ----------------------------------------------------

class TestTenantJournal:
    def _journal_with_events(self, tmp_path, spec, events):
        journal = TenantJournal.create(tmp_path, spec)
        for seq, (op, args) in enumerate(events, start=1):
            journal.append_event(seq, op, args)
        journal.close()

    def test_replay_reconstructs_bit_identically(self, tmp_path):
        spec = TenantSpec(name="web-1", scheme="lvm")
        live = Tenant(spec)
        events = list(_ops())
        self._journal_with_events(tmp_path, spec, events)
        for seq, (op, args) in enumerate(events, start=1):
            live.last_seq = seq
            live.apply(op, args)

        journal, replayed = TenantJournal.load(tmp_path, "web-1")
        journal.close()
        rebuilt = Tenant(journal.spec)
        for event in replayed:
            rebuilt.last_seq = event["seq"]
            rebuilt.apply(event["op"], event["args"])
        assert rebuilt.apply("digest", {}) == live.apply("digest", {})
        assert rebuilt.last_seq == len(events)

    def test_torn_tail_is_dropped_whole(self, tmp_path):
        spec = TenantSpec(name="t")
        events = list(_ops(n=5))
        self._journal_with_events(tmp_path, spec, events)
        path = journal_path(tmp_path, "t")
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        _, replayed = TenantJournal.load(tmp_path, "t")
        assert len(replayed) == len(events) - 1
        assert [e["seq"] for e in replayed] == list(range(1, len(events)))

    def test_torn_tail_is_truncated_so_later_appends_survive_replay(
        self, tmp_path
    ):
        """Recovery must physically truncate the torn line: otherwise
        post-recovery appends land *after* it and the next replay stops
        at the torn line, silently discarding every acknowledged
        post-recovery record."""
        spec = TenantSpec(name="t")
        events = list(_ops(n=5))
        self._journal_with_events(tmp_path, spec, events)
        path = journal_path(tmp_path, "t")
        path.write_bytes(path.read_bytes()[:-20])
        journal, replayed = TenantJournal.load(tmp_path, "t")
        last = replayed[-1]["seq"]
        # The op torn out of the tail re-runs (resubmitted), then the
        # tenant keeps mutating after recovery.
        journal.append_event(last + 1, "mmap", {"start_vpn": 9000, "pages": 4})
        journal.append_event(last + 2, "munmap", {"start_vpn": 9000})
        journal.close()
        _, replayed2 = TenantJournal.load(tmp_path, "t")
        assert [e["seq"] for e in replayed2] == list(range(1, last + 3))

    def test_tampered_header_is_rejected(self, tmp_path):
        from repro.errors import JournalMismatchError

        from repro.applog import parse_record_line, record_line

        spec = TenantSpec(name="t")
        TenantJournal.create(tmp_path, spec).close()
        path = journal_path(tmp_path, "t")
        # Forge a different spec under the original fingerprint, with a
        # valid line checksum (a torn-line tamper would just be a bad
        # header, not a mismatch).
        header = parse_record_line(path.read_text().splitlines()[0])
        header["spec"]["scheme"] = "radix"
        path.write_text(record_line(header) + "\n")
        with pytest.raises(JournalMismatchError):
            TenantJournal.load(tmp_path, "t")

    def test_unsafe_tenant_names_are_escaped(self, tmp_path):
        spec = TenantSpec(name="a/b..c")
        TenantJournal.create(tmp_path, spec).close()
        assert list(list_tenants(tmp_path)) == ["a/b..c"]
        assert all(p.parent == tmp_path for p in tmp_path.iterdir())


# -- shard worker (exactly-once discipline) -----------------------------

class TestShardWorker:
    def _worker(self, tmp_path):
        worker = ShardWorker(0, str(tmp_path))
        response, _ = worker.handle(
            {"id": 1, "op": "create_tenant",
             "args": {"spec": {"name": "t", "scheme": "radix"}}}
        )
        assert response["ok"], response
        return worker

    def test_duplicate_seq_is_answered_from_the_ring(self, tmp_path):
        worker = self._worker(tmp_path)
        payload = {"id": 2, "op": "mmap", "tenant": "t", "seq": 1,
                   "args": {"start_vpn": 64, "pages": 8}}
        first, _ = worker.handle(payload)
        again, _ = worker.handle(dict(payload, id=3))
        assert first["ok"] and again["ok"]
        assert again["result"] == first["result"]  # replayed, not reapplied
        stats, _ = worker.handle(
            {"id": 4, "op": "stats", "tenant": "t", "args": {}}
        )
        assert stats["result"]["mmaps"] == 1

    def test_final_record_without_its_newline_is_replayed(self, tmp_path):
        """A last record that lost only its newline still passes its
        checksum: restore replays it, the resubmitted request gets the
        live answer from the dedup ring, and the state matches the
        uninterrupted tenant's."""
        ops = [
            ("mmap", {"start_vpn": 64, "pages": 8}),
            ("translate", {"vas": [64 * 4096, 70 * 4096 + 8]}),
            ("mmap", {"start_vpn": 256, "pages": 4}),
            ("translate", {"vas": [256 * 4096 + 16, 65 * 4096]}),
        ]
        requests = [
            {"id": 10 + seq, "op": op, "tenant": "t", "seq": seq, "args": args}
            for seq, (op, args) in enumerate(ops, start=1)
        ]
        worker = self._worker(tmp_path)
        live = [worker.handle(request)[0] for request in requests]
        assert all(response["ok"] for response in live), live
        digest = {"id": 99, "op": "digest", "tenant": "t", "args": {}}
        uninterrupted = worker.handle(digest)[0]["result"]
        worker.close_all()
        path = journal_path(tmp_path, "t")
        path.write_bytes(path.read_bytes()[:-1])

        recovered = ShardWorker(0, str(tmp_path))
        assert recovered.restore(["t"])["restored"] == ["t"]
        assert recovered.tenants["t"].last_seq == 4
        assert recovered.handle(requests[3])[0] == live[3]
        assert recovered.handle(digest)[0]["result"] == uninterrupted
        recovered.close_all()

    def test_seq_gap_is_a_protocol_error(self, tmp_path):
        worker = self._worker(tmp_path)
        response, _ = worker.handle(
            {"id": 2, "op": "mmap", "tenant": "t", "seq": 5,
             "args": {"start_vpn": 64, "pages": 8}}
        )
        assert not response["ok"]
        assert response["error"]["type"] == "ProtocolError"

    @pytest.mark.parametrize("op,args", [
        ("translate", {"vas": ["abc"]}),
        ("translate", {"vas": ["4096"]}),
        ("translate", {"vas": [64 * 4096 + 0.5]}),
        ("translate", {"vas": [True]}),
        ("translate", {"vas": [-4096]}),
        # Unmapped, and radix's 36-bit index would alias it onto VPN 64.
        ("translate", {"vas": [2**60 + 64 * 4096]}),
        # A bad element fails the whole batch, even after good ones.
        ("translate", {"vas": [65 * 4096, "abc"]}),
        ("mmap", {"start_vpn": "0x10", "pages": 8}),
        ("mmap", {"start_vpn": 4096.0, "pages": 8}),
        ("mmap", {"start_vpn": -16, "pages": 8}),
        # Runs past the end of the 47-bit user half.
        ("mmap", {"start_vpn": 2**35 - 4, "pages": 8}),
        ("mmap", {"start_vpn": 4096, "pages": True}),
        ("mmap", {"start_vpn": 4096, "pages": 0}),
        ("munmap", {"start_vpn": "64"}),
        ("munmap", {"start_vpn": 64.0}),
    ])
    def test_malformed_op_is_a_protocol_error_that_replays(
        self, tmp_path, op, args
    ):
        """A malformed op changes no tenant state, and its journaled
        record replays to the same error instead of breaking restore."""
        setup = [("mmap", {"start_vpn": 64, "pages": 8}),
                 ("translate", {"vas": [64 * 4096, 70 * 4096 + 8]})]
        tenant = Tenant(TenantSpec(name="t", scheme="radix"))
        for setup_op, setup_args in setup:
            tenant.apply(setup_op, setup_args)
        before = tenant.apply("digest", {})
        with pytest.raises(ProtocolError):
            tenant.apply(op, args)
        assert tenant.apply("digest", {}) == before

        worker = self._worker(tmp_path)
        for seq, (event_op, event_args) in enumerate(setup + [(op, args)], 1):
            response, _ = worker.handle({"id": seq, "op": event_op, "tenant": "t",
                                         "seq": seq, "args": event_args})
        assert response["error"]["type"] == "ProtocolError"
        digest = {"id": 9, "op": "digest", "tenant": "t", "args": {}}
        live = worker.handle(digest)[0]["result"]
        worker.close_all()
        recovered = ShardWorker(0, str(tmp_path))
        assert recovered.restore(["t"])["restored"] == ["t"]
        assert recovered.handle(digest)[0]["result"] == live


# -- end to end ---------------------------------------------------------

async def _with_server(tmp_path, policy, body):
    sock = str(tmp_path / "serve.sock")
    server = TranslationServer(sock, str(tmp_path / "journals"), policy)
    await server.start()
    try:
        return await body(server, sock)
    finally:
        await server.close()


async def _await_ready(server, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(s.ready.is_set() for s in server.shards._shards):
            return
        await asyncio.sleep(0.05)
    raise AssertionError("shards never became ready")


class TestServerBasics:
    def test_create_translate_stats_digest(self, tmp_path):
        async def body(server, sock):
            client = await AsyncServeClient.connect(sock)
            try:
                await client.call(
                    "create_tenant",
                    args={"spec": {"name": "web", "scheme": "lvm"}},
                )
                await client.call(
                    "mmap", tenant="web",
                    args={"start_vpn": 1 << 20, "pages": 64},
                )
                result = await client.call(
                    "translate", tenant="web",
                    args={"vas": [(1 << 20) * 4096, ((1 << 20) + 3) * 4096]},
                )
                assert result["refs"] == 2 and result["mmu_cycles"] > 0
                stats = await client.call("stats", tenant="web", args={})
                assert stats["translations"] == 2
                assert stats["mapped_pages"] == 64
                digest = await client.call("digest", tenant="web", args={})
                assert digest["digest"]
            finally:
                await client.close()

        run(_with_server(tmp_path, ServePolicy(num_shards=2), body))

    def test_typed_lifecycle_errors(self, tmp_path):
        async def body(server, sock):
            client = await AsyncServeClient.connect(sock)
            try:
                with pytest.raises(UnknownTenantError):
                    await client.call("stats", tenant="ghost", args={})
                await client.call(
                    "create_tenant", args={"spec": {"name": "web"}}
                )
                with pytest.raises(TenantExistsError):
                    await client.call(
                        "create_tenant", args={"spec": {"name": "web"}}
                    )
                with pytest.raises(ProtocolError):
                    await client.call("warp", tenant="web", args={})
            finally:
                await client.close()

        run(_with_server(tmp_path, ServePolicy(num_shards=1), body))

    def test_vma_quota_is_enforced_at_the_front_end(self, tmp_path):
        async def body(server, sock):
            client = await AsyncServeClient.connect(sock)
            try:
                await client.call(
                    "create_tenant",
                    args={"spec": {"name": "small", "max_vmas": 2}},
                )
                for i in range(2):
                    await client.call(
                        "mmap", tenant="small",
                        args={"start_vpn": 1024 * (i + 1), "pages": 16},
                    )
                with pytest.raises(QuotaExceededError):
                    await client.call(
                        "mmap", tenant="small",
                        args={"start_vpn": 1024 * 3, "pages": 16},
                    )
                # munmap frees quota again.
                await client.call(
                    "munmap", tenant="small", args={"start_vpn": 1024}
                )
                await client.call(
                    "mmap", tenant="small",
                    args={"start_vpn": 1024 * 3, "pages": 16},
                )
            finally:
                await client.close()

        run(_with_server(tmp_path, ServePolicy(num_shards=1), body))

    def test_refs_per_sec_bucket_starts_full_and_rejects_oversized(
        self, tmp_path
    ):
        async def body(server, sock):
            client = await AsyncServeClient.connect(sock)
            try:
                await client.call(
                    "create_tenant",
                    args={"spec": {"name": "t", "max_refs_per_sec": 10}},
                )
                await client.call(
                    "mmap", tenant="t",
                    args={"start_vpn": 1024, "pages": 16},
                )
                # The bucket starts full: a fresh tenant's first
                # translate is admitted, not rejected until tokens
                # accrue.
                await client.call(
                    "translate", tenant="t", args={"vas": [1024 * 4096]}
                )
                # A batch larger than one second of quota can never be
                # admitted; it is rejected as permanent, not retryable.
                with pytest.raises(QuotaExceededError, match="capacity"):
                    await client.call(
                        "translate", tenant="t",
                        args={"vas": [(1024 + i) * 4096 for i in range(11)]},
                    )
            finally:
                await client.close()

        run(_with_server(tmp_path, ServePolicy(num_shards=1), body))


class TestOverloadShedding:
    def test_sheds_typed_instead_of_queueing(self, tmp_path):
        policy = ServePolicy(
            num_shards=1, max_global_inflight=4, max_tenant_inflight=2
        )

        async def body(server, sock):
            config = TrafficConfig(
                tenants=4, requests=200, batch=16, working_set_pages=128,
                churn=0.0, concurrency=4, seed=13, scheme="radix",
            )
            report = await run_traffic(sock, config)
            stats = server.server_stats()
            assert report.shed > 0, "2x overload never shed"
            assert stats["shed_overload"] == report.shed
            assert report.unexpected_errors == 0
            assert stats["inflight"] == 0  # all settled, none leaked
            return report

        report = run(_with_server(tmp_path, policy, body))
        # Shedding is reject-newest: accepted requests all completed.
        assert report.ok + report.shed == report.requests


class TestQuarantineIsolation:
    def test_poisoned_tenant_is_contained(self, tmp_path):
        policy = ServePolicy(num_shards=2)

        async def body(server, sock):
            config = TrafficConfig(
                tenants=2, requests=200, batch=16, working_set_pages=256,
                churn=0.05, concurrency=4, seed=17, scheme="lvm",
                poison_tenants={"tenant-0": dict(POISON)},
            )
            report = await run_traffic(sock, config)
            stats = server.server_stats()
            assert stats["quarantined"] == ["tenant-0"]
            assert stats["quarantine_rejects"] > 0
            # The innocent neighbour saw zero errors of any kind.
            assert report.errors_by_tenant.get("tenant-1", 0) == 0
            assert report.ok_by_tenant["tenant-1"] > 0
            assert report.unexpected_errors == 0
            # Quarantine frames are typed all the way to the client.
            client = await AsyncServeClient.connect(sock)
            try:
                with pytest.raises(TenantQuarantinedError):
                    await client.call(
                        "translate", tenant="tenant-0", args={"vas": [4096]}
                    )
            finally:
                await client.close()

        run(_with_server(tmp_path, policy, body))


class TestKillRecovery:
    REQUESTS = 240

    def _config(self):
        return TrafficConfig(
            tenants=2, requests=self.REQUESTS, batch=8,
            working_set_pages=256, churn=0.02, concurrency=4,
            seed=23, scheme="lvm",
        )

    async def _run_once(self, tmp_path, tag, kill):
        policy = ServePolicy(
            num_shards=2, max_global_inflight=64, max_tenant_inflight=32,
            heartbeat_interval=0.25, shard_deadline=20.0,
        )
        sock = str(tmp_path / f"{tag}.sock")
        server = TranslationServer(
            sock, str(tmp_path / f"{tag}-journals"), policy
        )
        await server.start()
        try:
            killer = None
            if kill:

                async def kill_mid_run():
                    await asyncio.sleep(0.5)
                    index = server.shards.shard_of("tenant-0")
                    os.kill(server.shards.pids()[index], signal.SIGKILL)

                killer = asyncio.create_task(kill_mid_run())
            report = await run_traffic(sock, self._config())
            if killer is not None:
                await killer
            await _await_ready(server)
            client = await AsyncServeClient.connect(sock)
            try:
                digests = {
                    name: (await client.call("digest", tenant=name, args={}))
                    for name in ("tenant-0", "tenant-1")
                }
            finally:
                await client.close()
            return report, digests, server.server_stats()
        finally:
            await server.close()

    @pytest.mark.timeout(300)
    def test_sigkilled_shard_recovers_bit_identically(self, tmp_path):
        """The acceptance centerpiece at CI scale: SIGKILL the shard
        hosting tenant-0 mid-replay; every tenant digest must match the
        uninterrupted run bit for bit and no client may see an
        unexpected error."""
        async def body():
            ref_report, ref_digests, _ = await self._run_once(
                tmp_path, "ref", kill=False
            )
            kill_report, kill_digests, stats = await self._run_once(
                tmp_path, "kill", kill=True
            )
            assert stats["shards"]["respawns"] >= 1, "the kill was missed"
            assert kill_digests == ref_digests
            assert kill_report.unexpected_errors == 0
            assert kill_report.ok == ref_report.ok  # nothing lost, nothing doubled
            recovery = stats["shards"]["recoveries"][-1]
            assert recovery["seconds"] < 30.0
            return ref_report

        run(body())

    @pytest.mark.timeout(120)
    def test_heartbeat_deadline_kills_a_wedged_shard(self, tmp_path):
        """A shard wedged in a busy loop (here: a deliberate sleep op)
        misses its heartbeat deadline, gets a stack dump + SIGKILL, and
        is respawned."""
        policy = ServePolicy(
            num_shards=1, heartbeat_interval=0.2, shard_deadline=0.8
        )

        async def body(server, sock):
            client = await AsyncServeClient.connect(sock)
            wedge = asyncio.create_task(
                client.call("sleep", shard=0, args={"seconds": 3.0})
            )
            try:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if server.shards.stats.deadline_kills >= 1:
                        break
                    await asyncio.sleep(0.1)
                assert server.shards.stats.deadline_kills >= 1
            finally:
                wedge.cancel()
                await client.close()

        run(_with_server(tmp_path, policy, body))


class TestServerRestart:
    def test_restarted_server_replays_tenants_from_journals(self, tmp_path):
        """A whole-server restart (same journal dir) reconstructs every
        tenant: the journals, not the process, are the durable state."""
        sock1 = str(tmp_path / "one.sock")
        sock2 = str(tmp_path / "two.sock")
        journals = str(tmp_path / "journals")

        async def first():
            server = TranslationServer(sock1, journals, ServePolicy(num_shards=2))
            await server.start()
            try:
                client = await AsyncServeClient.connect(sock1)
                try:
                    await client.call(
                        "create_tenant", args={"spec": {"name": "web"}}
                    )
                    await client.call(
                        "mmap", tenant="web",
                        args={"start_vpn": 2048, "pages": 32},
                    )
                    await client.call(
                        "translate", tenant="web",
                        args={"vas": [2048 * 4096, 2050 * 4096]},
                    )
                    return await client.call("digest", tenant="web", args={})
                finally:
                    await client.close()
            finally:
                await server.close()

        async def second():
            server = TranslationServer(sock2, journals, ServePolicy(num_shards=2))
            await server.start()
            try:
                await server.adopt_journaled_tenants()
                client = await AsyncServeClient.connect(sock2)
                try:
                    digest = await client.call("digest", tenant="web", args={})
                    stats = await client.call("stats", tenant="web", args={})
                    assert stats["translations"] == 2
                    return digest
                finally:
                    await client.close()
            finally:
                await server.close()

        assert run(first()) == run(second())


# -- no shard outlives its front end -----------------------------------

def _alive(pid):
    """True while ``pid`` runs: an exited process left unreaped (a
    zombie, once its parent is gone) counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestNoOrphanedShards:
    """``repro serve`` in a subprocess: whichever way the front end
    dies, its shard workers follow it within 5 s."""

    def _start(self, tmp_path):
        sock = tmp_path / "serve.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
             "--state-dir", str(tmp_path / "state"), "--shards", "2"],
            env=env, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        while not sock.exists():
            assert proc.poll() is None, "repro serve exited at startup"
            assert time.monotonic() < deadline, "repro serve never listened"
            time.sleep(0.05)

        async def shard_pids():
            client = await AsyncServeClient.connect(str(sock))
            try:
                return (await client.call("server_stats"))["shards"]["pids"]
            finally:
                await client.close()

        pids = run(shard_pids())
        assert len(pids) == 2 and all(_alive(pid) for pid in pids)
        return proc, pids

    def _assert_shards_follow(self, proc, pids, sig):
        try:
            proc.send_signal(sig)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in pids if _alive(pid)]
            assert not survivors, f"shards {survivors} outlived the front end"
        finally:
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    @pytest.mark.timeout(120)
    def test_sigterm_stops_every_shard(self, tmp_path):
        proc, pids = self._start(tmp_path)
        self._assert_shards_follow(proc, pids, signal.SIGTERM)

    @pytest.mark.timeout(120)
    def test_sigkill_stops_every_shard(self, tmp_path):
        """No shutdown request can reach the shards: they must see EOF."""
        proc, pids = self._start(tmp_path)
        self._assert_shards_follow(proc, pids, signal.SIGKILL)
