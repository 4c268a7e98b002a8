"""Experiment drivers — one module per reproduced figure/table.

Every module registers one ``SPEC`` (:func:`repro.harness.spec.register`;
discovery lives in :mod:`repro.experiments.registry`);
``python -m repro run <id>`` runs it and prints the figure's rows/series
plus shape checks.  ``scale`` shrinks simulated duration/load so the same
driver serves both the full reproduction (scale=1) and the
pytest-benchmark harness (scale<1).

| id  | artefact                                   | module              |
|-----|--------------------------------------------|---------------------|
| T1  | inter-DC RTT matrix                        | t1_rtt_matrix       |
| F6  | commit latency CDF, PLANET/MDCC vs 2PC     | f6_commit_latency   |
| F7  | time-to-guess vs time-to-commit CDF        | f7_guess_vs_commit  |
| F8  | commit-likelihood calibration              | f8_calibration      |
| F9  | speculation accuracy vs guess threshold    | f9_threshold_sweep  |
| F10 | abort rate vs contention                   | f10_contention      |
| F11 | goodput with admission control             | f11_admission       |
| F12 | behaviour under latency spikes             | f12_spikes          |
| T2  | workload summary table                     | t2_summary          |
| A1  | likelihood-model ablation                  | a1_likelihood_ablation |
| A2  | fast vs classic Paxos path                 | a2_fast_paxos       |
| A3  | admission policy ablation                  | a3_admission_policy |
| F13 | coordinator failure + orphan recovery      | f13_coordinator_failure |
| S1  | scale-out: latency vs number of regions    | s1_scaleout         |
| S2  | sensitivity to latency variance            | s2_jitter           |
| S3  | sensitivity to message loss                | s3_message_loss     |
| T3  | full TPC-W mix, per-type breakdown         | t3_tpcw_mix         |
| A4  | WAL group commit ablation                  | a4_group_commit     |
| T4  | YCSB core workloads summary                | t4_ycsb             |
| SC1 | sharded planet-scale sim, 1M users         | scaleout_1m         |
| ISO | isolation matrix: observed vs predicted    | iso_matrix          |
| CHK | fault campaign + consistency checker       | check_campaign      |
"""

ALL_EXPERIMENTS = [
    "t1_rtt_matrix",
    "f6_commit_latency",
    "f7_guess_vs_commit",
    "f8_calibration",
    "f9_threshold_sweep",
    "f10_contention",
    "f11_admission",
    "f12_spikes",
    "t2_summary",
    "a1_likelihood_ablation",
    "a2_fast_paxos",
    "a3_admission_policy",
    "f13_coordinator_failure",
    "s1_scaleout",
    "s2_jitter",
    "s3_message_loss",
    "t3_tpcw_mix",
    "a4_group_commit",
    "t4_ycsb",
    "scaleout_1m",
    "iso_matrix",
    "check_campaign",
]
