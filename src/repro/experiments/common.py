"""Shared plumbing for experiment drivers."""

from __future__ import annotations

from typing import Optional

from repro.cluster import ClusterConfig
from repro.config import strip_reserved
from repro.core.session import PlanetConfig
from repro.harness.config import RunConfig, WorkloadConfig
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment
from repro.harness.spec import current_overrides
from repro.workload.keys import HotspotChooser, UniformChooser
from repro.workload.microbench import MicrobenchSpec, build_microbench_tx


def planet_with_overrides(planet: Optional[PlanetConfig]) -> PlanetConfig:
    """The driver's PlanetConfig with any active ``--set`` overrides applied.

    Reserved namespaces (``check.*``, ``scale.*``, ``engine.*``) are
    consumed elsewhere — the campaign/scaleout knob parsers and the
    harness's backend selection — so they are stripped before PlanetConfig
    validation.
    """
    planet = planet if planet is not None else PlanetConfig()
    overrides = current_overrides()
    if overrides:
        overrides = strip_reserved(overrides)
    if overrides:
        planet = planet.with_overrides(overrides)
    return planet


def microbench_run(
    seed: int = 0,
    engine: str = "mdcc",
    n_keys: int = 2000,
    hot_keys: Optional[int] = None,
    hot_fraction: float = 0.9,
    n_reads: int = 2,
    n_writes: int = 2,
    rate_tps: float = 5.0,
    clients_per_dc: int = 2,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 3_000.0,
    timeout_ms: Optional[float] = 2_000.0,
    guess_threshold: Optional[float] = 0.95,
    planet: Optional[PlanetConfig] = None,
    use_fast_path: bool = True,
    spikes=(),
    use_deltas: bool = False,
    optimistic_abort: bool = False,
) -> RunResult:
    """One microbenchmark run with the standard five-DC deployment."""
    if hot_keys is None:
        chooser = UniformChooser(n_keys)
    else:
        chooser = HotspotChooser(n_keys, hot_keys=hot_keys, hot_fraction=hot_fraction)
    spec = MicrobenchSpec(
        chooser=chooser,
        n_reads=n_reads,
        n_writes=n_writes,
        use_deltas=use_deltas,
        timeout_ms=timeout_ms,
        guess_threshold=guess_threshold,
    )
    config = RunConfig(
        cluster=ClusterConfig(
            seed=seed,
            engine=engine,
            use_fast_path=use_fast_path,
            optimistic_abort=optimistic_abort,
        ),
        planet=planet_with_overrides(planet),
        workload=WorkloadConfig(
            tx_factory=lambda session, rng: build_microbench_tx(session, spec, rng),
            arrival="open",
            rate_tps=rate_tps,
            clients_per_dc=clients_per_dc,
        ),
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        spikes=list(spikes),
    )
    return run_experiment(config)


def scaled(value: float, scale: float, minimum: float) -> float:
    """Scale an experiment duration/count, never below a usable floor."""
    return max(value * scale, minimum)
