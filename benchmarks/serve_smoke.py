"""CI smoke for the serving layer (`python -m repro serve`).

Drives a running server over its unix socket with a two-tenant mix,
SIGKILLs the shard hosting one tenant mid-run, and asserts the
robustness contract end to end:

* the killed shard's tenant is reconstructed from its journal — its
  post-run counters account for every op issued, including the ones
  applied *before* the kill, which only the journal remembers;
* the other tenant saw zero errors throughout;
* the server recorded the recovery (respawn + journal replay).

Usage: serve_smoke.py --socket PATH [--rounds N]

Exits non-zero (with a diagnostic on stderr) on any violation, so a
CI step can gate on it directly.
"""

import argparse
import asyncio
import os
import signal
import sys
import zlib

from repro.serve.client import AsyncServeClient

PAGE = 4096
#: Seconds any one request may take before the smoke gives up on it.
TIMEOUT = 60.0


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def pick_tenants(num_shards):
    """Two tenant names that land on different shards (placement is
    crc32 % num_shards, mirroring ``ShardManager.shard_of``)."""
    names = {}
    index = 0
    while len(names) < 2:
        name = f"smoke-{index}"
        shard = zlib.crc32(name.encode("utf-8")) % num_shards
        names.setdefault(shard, name)
        index += 1
    (shard_a, victim), (_, bystander) = sorted(names.items())[:2]
    return victim, bystander, shard_a


async def smoke(args):
    client = await AsyncServeClient.connect(args.socket)

    async def call(op, **payload):
        return await asyncio.wait_for(client.call(op, **payload), TIMEOUT)

    try:
        await run_rounds(args, call)
    finally:
        await client.close()


async def run_rounds(args, call):
    stats = await call("server_stats")
    pids = stats["shards"]["pids"]
    if len(pids) < 2:
        fail(f"need >=2 shards for a blast-radius check, server has {len(pids)}")
    victim, bystander, victim_shard = pick_tenants(len(pids))

    for name in (victim, bystander):
        await call("create_tenant", args={"spec": {"name": name}})
    print(
        f"serve_smoke: {victim!r} on shard {victim_shard} (to be killed), "
        f"{bystander!r} elsewhere"
    )

    kill_at = args.rounds // 2
    issued = {victim: 0, bystander: 0}  # mutating ops per tenant
    bystander_errors = 0
    for round_no in range(args.rounds):
        if round_no == kill_at:
            pid = (await call("server_stats"))["shards"]["pids"][victim_shard]
            print(f"serve_smoke: SIGKILL shard {victim_shard} (pid {pid})")
            os.kill(pid, signal.SIGKILL)
        for name in (victim, bystander):
            base = 4096 + round_no * 64
            try:
                await call(
                    "mmap", tenant=name, args={"start_vpn": base, "pages": 16}
                )
                await call(
                    "translate",
                    tenant=name,
                    args={"vas": [(base + i) * PAGE for i in range(16)]},
                )
                await call("munmap", tenant=name, args={"start_vpn": base})
                issued[name] += 3
            except Exception as exc:  # noqa: BLE001 - smoke records, then judges
                if name == bystander:
                    bystander_errors += 1
                    print(
                        f"serve_smoke: bystander error at round {round_no}: "
                        f"{type(exc).__name__}: {exc}",
                        file=sys.stderr,
                    )
                else:
                    fail(
                        f"victim tenant errored at round {round_no}: "
                        f"{type(exc).__name__}: {exc}"
                    )

    # -- verdicts ------------------------------------------------------
    if bystander_errors:
        fail(f"bystander tenant saw {bystander_errors} errors; blast radius leaked")

    for name in (victim, bystander):
        tstats = await call("stats", tenant=name, args={})
        if tstats["ops"] != issued[name] or tstats["last_seq"] != issued[name]:
            fail(
                f"tenant {name!r} lost history: ops={tstats['ops']} "
                f"last_seq={tstats['last_seq']}, issued {issued[name]} — "
                "journal replay did not reconstruct pre-kill state"
            )
        if tstats["quarantined"]:
            fail(f"tenant {name!r} unexpectedly quarantined: {tstats['quarantined']}")

    stats = await call("server_stats")
    recoveries = stats["shards"]["recoveries"]
    if not any(r["shard"] == victim_shard for r in recoveries):
        fail(f"no recorded recovery for shard {victim_shard}: {recoveries!r}")
    if stats["shards"]["respawns"] < 1:
        fail("server never respawned a shard")
    recovery = [r for r in recoveries if r["shard"] == victim_shard][-1]
    if victim not in recovery["restored"]:
        fail(f"recovery did not restore {victim!r}: {recovery!r}")

    print(
        f"serve_smoke: OK — {victim!r} reconstructed after SIGKILL "
        f"({recovery['seconds'] * 1e3:.0f} ms recovery), "
        f"{bystander!r} saw zero errors across {issued[bystander]} ops"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True, help="server unix socket path")
    parser.add_argument("--rounds", type=int, default=30, help="op rounds per tenant")
    args = parser.parse_args(argv)
    asyncio.run(smoke(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
