"""Figure 8: phase-2 precision/recall per subtree distance metric.

Paper claim: matching subtrees on any single shape feature (path P,
fanout F, depth D, node count N) underperforms the equal-weight
combination, which reaches ~98% precision and recall.
"""

from __future__ import annotations

from conftest import BENCH_SEED, emit
from repro.eval.experiments import DISTANCE_VARIANTS, phase2_distance_experiment
from repro.eval.reporting import format_table


def test_fig08_distance(corpus, benchmark, capsys):
    scores = phase2_distance_experiment(corpus, seed=BENCH_SEED)
    rows = [
        [name, f"{s.precision:.3f}", f"{s.recall:.3f}"]
        for name, s in scores.items()
    ]
    emit(
        capsys,
        "fig08_distance",
        format_table(
            ["metric", "precision", "recall"],
            rows,
            title="Figure 8 — phase-2 P/R per subtree distance metric",
        ),
    )

    combined = scores["All"]
    assert combined.precision >= 0.9
    assert combined.recall >= 0.9
    # The combined metric must beat the weaker single features clearly
    # (EXPERIMENTS.md: F/D/N clearly below it).
    for single in ("F", "D", "N"):
        assert combined.precision > scores[single].precision, single
    assert min(scores[s].precision for s in ("P", "F", "D", "N")) < 0.9

    one_site = [corpus[0]]
    benchmark.pedantic(
        lambda: phase2_distance_experiment(
            one_site, {"All": DISTANCE_VARIANTS["All"]}, seed=BENCH_SEED
        ),
        rounds=1,
        iterations=1,
    )
