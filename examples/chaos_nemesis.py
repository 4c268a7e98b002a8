"""Run the stack through a random fault storm and audit the aftermath.

Draws a seeded fault plan (latency spikes, single-DC partitions, message
loss, at most one coordinator or replica crash), runs a mixed workload
through it with recovery and anti-entropy armed, and then verifies the
safety battery on every live replica — the simulated equivalent of a
Jepsen run.  Crashes are fail-stop: a crashed replica is left out.

Run with:  python examples/chaos_nemesis.py [seed]
"""

import sys

from repro import Cluster, ClusterConfig
from repro.core.session import PlanetSession
from repro.faults import campaign_plan

DURATION_MS = 8_000.0


def main(seed: int = 4) -> None:
    cluster = Cluster(
        ClusterConfig(
            seed=seed,
            option_ttl_ms=400.0,
            anti_entropy_interval_ms=500.0,
        )
    )
    cluster.load({"stock": 200})
    plan = campaign_plan(cluster.datacenter_names, DURATION_MS, seed=seed, intensity=2.0)
    plan.apply(cluster)
    print(f"nemesis plan (seed {seed}): {plan.describe()}")
    print()

    sessions = {dc: PlanetSession(cluster, dc) for dc in cluster.datacenter_names}
    rng = cluster.sim.rng.stream("nemesis-load")
    txs = []
    for i in range(150):
        dc = cluster.datacenter_names[i % 5]
        if rng.random() < 0.5:
            tx = sessions[dc].transaction().increment("stock", -1, floor=0.0)
        else:
            tx = sessions[dc].transaction().write(f"item:{rng.randrange(40)}", i)
        tx.with_timeout(2_000.0)
        cluster.sim.schedule(rng.uniform(0.0, DURATION_MS), sessions[dc].submit, tx)
        txs.append(tx)
    cluster.run()
    cluster.settle(3_000.0)

    decided = sum(1 for tx in txs if tx.decision is not None)
    committed = sum(1 for tx in txs if tx.committed)
    print(f"transactions: {len(txs)} submitted, {decided} decided, {committed} committed")

    # Safety battery ----------------------------------------------------
    problems = []
    live = [node for node in cluster.storage_nodes.values() if not node.crashed]
    for node in live:
        for key in node.store.keys():
            if node.store.record(key).pending:
                problems.append(f"pending option left at {node.node_id}/{key}")
    states = {
        tuple(sorted(
            (key, node.store.record(key).latest.value)
            for key in node.store.keys()
            if node.store.record(key).committed_version > 0
        ))
        for node in live
    }
    if len(states) != 1:
        problems.append("replicas diverged")
    stock_values = {node.store.get("stock").value for node in live}
    if len(stock_values) != 1 or min(stock_values) < 0:
        problems.append(f"stock inconsistent/negative: {stock_values}")

    if problems:
        for problem in problems:
            print(f"  FAIL  {problem}")
        raise SystemExit(1)
    print("safety battery: replicas converged, no orphans, escrow intact  [OK]")
    repaired = sum(r.ae_repairs for r in cluster.replicas.values())
    recovered = sum(r.recovered_aborts for r in cluster.replicas.values())
    print(f"(anti-entropy shipped {repaired} versions; recovery aborted {recovered} orphans)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
