"""The public client facade.

:class:`PlanetClient` is what the examples and workloads use::

    from repro import Cluster, ClusterConfig, PlanetClient

    cluster = Cluster(ClusterConfig(seed=7))
    client = PlanetClient(cluster, "us_west")

    txn = (client.transaction()
           .read("balance:alice")
           .increment("stock:novel", -1)
           .write("order:1", {"item": "novel"})
           .with_timeout(800.0)
           .with_guess_threshold(0.95)
           .on_guess(lambda tx, p: print(f"confirm at p={p:.3f}"))
           .on_wrong_guess(lambda tx: print("apologise"))
           .on_commit(lambda tx: print("durable")))
    client.submit(txn)
    cluster.run()
"""

from __future__ import annotations

from typing import Optional

from repro.core.session import PlanetConfig, PlanetSession
from repro.core.transaction import PlanetTransaction
from repro.obs.metrics import MetricsRegistry


class PlanetClient:
    """A thin, application-facing wrapper around a :class:`PlanetSession`.

    With ``failover=True`` the client notices a crashed home coordinator at
    submission time and re-binds to the nearest healthy data center
    (statistics and metrics carry over), so an app-server failure costs its
    clients one reconnect, not their service.
    """

    def __init__(
        self,
        cluster,
        dc_name: str,
        config: Optional[PlanetConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        session: Optional[PlanetSession] = None,
        failover: bool = False,
    ) -> None:
        self.home_dc = dc_name
        self.failover = failover
        self.failovers = 0
        self.session = session if session is not None else PlanetSession(
            cluster, dc_name, config=config, metrics=metrics
        )
        self._config = config

    @property
    def cluster(self):
        return self.session.cluster

    @property
    def metrics(self) -> MetricsRegistry:
        return self.session.metrics

    @property
    def dc_name(self) -> str:
        return self.session.dc_name

    def transaction(self) -> PlanetTransaction:
        return self.session.transaction()

    def _coordinator_healthy(self) -> bool:
        return not getattr(self.session.coordinator, "crashed", False)

    def _fail_over(self) -> None:
        """Re-bind to the nearest data center with a healthy coordinator."""
        cluster = self.cluster
        home = cluster.topology.datacenter(self.home_dc)
        for dc, _rtt in cluster.topology.sorted_peers(home):
            coordinator = cluster.coordinator(dc.name)
            if not getattr(coordinator, "crashed", False):
                self.session = PlanetSession(
                    cluster,
                    dc.name,
                    config=self._config,
                    metrics=self.session.metrics,
                    conflicts=self.session.conflicts,
                )
                self.failovers += 1
                return
        raise RuntimeError("no healthy coordinator left to fail over to")

    def submit(self, tx: PlanetTransaction) -> PlanetTransaction:
        if self.failover and not self._coordinator_healthy():
            self._fail_over()
        return self.session.submit(tx)

    def execute(self, tx: PlanetTransaction, run: bool = True) -> PlanetTransaction:
        """Submit and, by default, drive the simulation until it decides."""
        self.submit(tx)
        if run:
            while tx.decision is None and self.cluster.sim.step():
                pass
        return tx
