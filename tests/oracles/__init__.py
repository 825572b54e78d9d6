"""Pure-python reference implementations of the production kernels.

Production computes with numpy and one-pass walks. The readable loop
formulations of the paper's algorithms live here, test-only, as the
reference the equivalence tests and the benches
(``benchmarks/bench_fig05_time.py``, ``benchmarks/bench_text.py``,
``benchmarks/bench_html.py``) compare the kernels against:

- :mod:`tests.oracles.kmeans` — Simple K-Means over sparse vectors;
- :mod:`tests.oracles.kmedoids` — Voronoi-iteration k-medoids over
  nested-list distance matrices;
- :mod:`tests.oracles.hierarchical` — average-link agglomerative
  clustering with sparse-vector sums;
- :mod:`tests.oracles.treeedit` — the scalar-only Zhang–Shasha driver;
- :mod:`tests.oracles.ranking` — sparse-vector content vectors and the
  intra-set similarity of a common subtree set;
- :mod:`tests.oracles.registry` — the seven clustering configurations
  wired to the loop kernels above;
- :mod:`tests.oracles.grouping` — cross-page grouping by greedy
  matching over the sorted list of ``(distance, set, candidate)``
  tuples;
- :mod:`tests.oracles.selection` — the live-DOM sibling vote and the
  pair-by-pair containment relation of QA-Pagelet selection;
- :mod:`tests.oracles.records` — single-page analysis one candidate
  node at a time, the reference for the one-pass record builder;
- :mod:`tests.oracles.html` — HTML parsing as a character-cursor
  tokenizer yielding token objects, then a tree builder, the
  reference for the one-pass parser.

Restart-based oracles hand their per-restart method to production's
restart loop (``_fit_restarts`` / ``_fit_matrix``, which call
:func:`repro.runtime.run_restarts`), so only the per-restart kernel
differs from production.
"""
