"""Differential pin: the committed fault plan replays to a fixed history.

``examples/campaign_plan.json`` drives the fault path end to end — loss
windows, a replica crash, anti-entropy repair, orphan recovery — under
history capture.  This test pins the digest of its replayed history, the
way ``test_iso_digest_pin.py`` pins the f7 run: any change to the engine,
the network, the anti-entropy scans or the history digest itself that
perturbs a fault-path run flips the digest and fails here.

If the change was *intentional* (a protocol change that legitimately
alters the fault path), re-pin the digest and say so in the commit
message.  If it was not, fix the change, not the pin.
"""

from __future__ import annotations

from pathlib import Path

from repro.check.campaign import load_plan, run_plan

PLAN = Path(__file__).resolve().parents[1] / "examples" / "campaign_plan.json"

# Re-pinned once when digests began hashing raw, run-scoped ids instead of
# renaming counter ids; the renaming digest of this same history is still
# 68210b8ad27bb965ee8aa098b8a6b162931f05f5b28954448765e15f0094b8e2.
CAMPAIGN_PLAN_DIGEST = (
    "a006f5fc51896ce2cbe4be56b403ca51b1b93c691ee4efcc589a9da45657c4fe"
)


def test_campaign_plan_replay_digest_is_pinned():
    row = run_plan(load_plan(str(PLAN)))
    assert row["ops"] == 571
    assert row["violations"] == []
    assert row["digest"] == CAMPAIGN_PLAN_DIGEST
