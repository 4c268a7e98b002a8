"""Inspect a transaction's life: votes, likelihood, guess, commit.

Uses the tracing module to print full timelines for two contrasting
transactions — an uncontended one (smooth likelihood climb, early guess)
and one racing a competitor for the same record (likelihood crash, abort) —
plus the compact one-line latency bars.

All three guess at their first vote.  The likelihood is only evaluated while
someone reads it, so each transaction registers an ``on_progress`` callback
to keep the per-vote trace going after the guess; without one the timeline
would show the first vote only.

Run with:  python examples/transaction_timeline.py
"""

from repro import Cluster, ClusterConfig
from repro.core.session import PlanetSession
from repro.trace import render_latency_bar, render_timeline


def keep_tracing(tx, likelihood) -> None:
    """A progress reader: its presence keeps ``tx.likelihood_trace`` per-vote."""


def main() -> None:
    cluster = Cluster(ClusterConfig(seed=3))
    session = PlanetSession(cluster, "us_west")
    competitor = PlanetSession(cluster, "singapore", conflicts=session.conflicts)

    smooth = (
        session.transaction()
        .read("profile:alice")
        .write("profile:alice", {"theme": "dark"})
        .with_guess_threshold(0.9)
        .with_timeout(2_000.0)
        .on_progress(keep_tracing)
    )
    contended_a = (
        session.transaction()
        .write("hot:counter", 1)
        .with_guess_threshold(0.9)
        .on_progress(keep_tracing)
    )
    contended_b = (
        competitor.transaction()
        .write("hot:counter", 2)
        .with_guess_threshold(0.9)
        .on_progress(keep_tracing)
    )

    session.submit(smooth)
    session.submit(contended_a)
    competitor.submit(contended_b)
    cluster.run()

    print(render_timeline(smooth))
    print()
    for tx, name in ((contended_a, "us_west writer"), (contended_b, "singapore writer")):
        print(f"--- {name} ---")
        print(render_timeline(tx))
        print()

    print("latency bars (G = guess, D = decision):")
    for tx, name in ((smooth, "smooth"), (contended_a, "contended A"), (contended_b, "contended B")):
        bar = render_latency_bar(tx, width=50)
        if bar is not None:
            print(f"  {name:12s} {bar}  -> {tx.stage.value}")


if __name__ == "__main__":
    main()
