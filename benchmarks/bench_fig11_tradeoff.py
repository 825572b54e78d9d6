"""Figure 11: P/R trade-off vs clusters passed to Phase 2 (k = 3).

Paper claim: passing a single cluster keeps precision very high but
sacrifices recall (whole answer-page classes are skipped); passing all
three maximizes recall while precision collapses (no-match pages
pollute the cross-page analysis); two clusters is the compromise.
"""

from __future__ import annotations

from conftest import BENCH_SEED, emit
from repro.eval.experiments import tradeoff_experiment
from repro.eval.reporting import format_table


def test_fig11_tradeoff(corpus, benchmark, capsys):
    scores = tradeoff_experiment(corpus, m_values=(1, 2, 3), k=3, seed=BENCH_SEED)
    rows = [
        [m, f"{s.precision:.3f}", f"{s.recall:.3f}"] for m, s in scores.items()
    ]
    emit(
        capsys,
        "fig11_tradeoff",
        format_table(
            ["clusters passed", "precision", "recall"],
            rows,
            title="Figure 11 — P/R vs clusters forwarded to Phase 2 (k=3)",
        ),
    )

    # Trade-off in the paper's direction: precision strictly falls.
    assert scores[1].precision > scores[2].precision > scores[3].precision
    assert scores[1].recall <= scores[2].recall <= scores[3].recall + 1e-9
    assert scores[1].precision > 0.8
    assert scores[3].recall > scores[1].recall

    benchmark.pedantic(
        lambda: tradeoff_experiment(
            [corpus[0]], m_values=(2,), k=3, seed=BENCH_SEED
        ),
        rounds=1,
        iterations=1,
    )
