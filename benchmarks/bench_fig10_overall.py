"""Figure 10: overall two-phase P/R per clustering configuration.

Paper claim: the full THOR pipeline with TFIDF tag clustering (TTag)
achieves ~97% precision and ~96% recall, ahead of raw tags, both
content configurations, size, URLs, and random — because Phase-1
cluster quality doubly impacts the final extraction.
"""

from __future__ import annotations

from conftest import BENCH_SEED, emit
from repro.eval.experiments import overall_experiment, overall_experiment_per_site
from repro.eval.metrics import PageletScore
from repro.eval.reporting import format_table
from repro.eval.significance import bootstrap_ci, paired_bootstrap

CONFIGS = ("ttag", "rtag", "tcon", "rcon", "size", "url", "rand")
LABELS = {
    "ttag": "TTag",
    "rtag": "RTag",
    "tcon": "TCon",
    "rcon": "RCon",
    "size": "Size",
    "url": "URLs",
    "rand": "Rand",
}


def test_fig10_overall(corpus, benchmark, capsys):
    per_site = overall_experiment_per_site(corpus, CONFIGS, seed=BENCH_SEED)
    scores = {}
    for key, site_scores in per_site.items():
        total = PageletScore(0, 0, 0, 0)
        for score in site_scores:
            total = total.merge(score)
        scores[key] = total
    rows = [
        [LABELS[key], f"{s.precision:.3f}", f"{s.recall:.3f}", f"{s.f1:.3f}"]
        for key, s in scores.items()
    ]
    table = format_table(
        ["config", "precision", "recall", "F1"],
        rows,
        title="Figure 10 — overall two-phase P/R per configuration",
    )
    # Bootstrap over sites: how tight is the headline, and is TTag's
    # lead over the strongest baseline significant?
    ttag_f1 = [s.f1 for s in per_site["ttag"]]
    ttag_ci = bootstrap_ci(ttag_f1, seed=BENCH_SEED)
    runner_up = max(
        (k for k in CONFIGS if k != "ttag"),
        key=lambda k: scores[k].f1,
    )
    comparison = paired_bootstrap(
        ttag_f1, [s.f1 for s in per_site[runner_up]], seed=BENCH_SEED
    )
    stats = (
        f"\nTTag per-site F1: {ttag_ci}"
        f"\nTTag vs {LABELS[runner_up]}: mean F1 diff "
        f"{comparison.mean_difference:+.3f}, "
        f"P(TTag better) = {comparison.probability_a_better:.2f}"
    )
    emit(capsys, "fig10_overall", table + stats)

    ttag = scores["ttag"]
    # The paper's headline is 0.97 precision / 0.96 recall.
    assert ttag.precision >= 0.97
    assert ttag.recall >= 0.97
    # TTag leads every alternative on F1; URL and random collapse.
    for key in CONFIGS[1:]:
        assert ttag.f1 >= scores[key].f1, key
    assert scores["url"].f1 < 0.3
    assert scores["rand"].f1 < 0.3

    one_site = [corpus[0]]
    benchmark.pedantic(
        lambda: overall_experiment(one_site, ["ttag"], seed=BENCH_SEED),
        rounds=1,
        iterations=1,
    )
