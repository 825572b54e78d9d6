"""Experiment harnesses — one per figure of the paper's evaluation.

Each function takes a corpus of :class:`~repro.deepweb.corpus.SiteSample`
objects (or a fitted synthetic generator) and returns plain data the
benches print. See DESIGN.md §3 for the figure-to-harness map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from repro.cluster.assignments import Clustering
from repro.cluster.kmeans import KMeans
from repro.cluster.kmedoids import KMedoids
from repro.cluster.quality import clustering_entropy
from repro.cluster.random_baseline import random_clustering
from repro.cluster.scalar import ScalarKMeans
from repro.cluster.editdist import normalized_levenshtein
from repro.config import ExecutionConfig, SubtreeConfig, ThorConfig
from repro.core.identification import PageletIdentifier
from repro.core.probing import QueryProber
from repro.core.single_page import candidate_records_for_cluster
from repro.core.subtree_ranking import intra_set_similarity
from repro.core.subtree_sets import find_common_subtree_sets
from repro.core.thor import Thor
from repro.deepweb.corpus import SiteSample
from repro.deepweb.site import LabeledPage
from repro.deepweb.synthetic import SyntheticPage
from repro.eval.metrics import PageletScore, score_pagelets
from repro.seeding import namespaced_rng
from repro.signatures.registry import get_configuration
from repro.vsm.matrix import pairwise_normalized_levenshtein
from repro.vsm.weighting import CorpusWeighter, raw_tf_vector


# ---------------------------------------------------------------------------
# Figures 4 & 5: entropy and time vs pages-per-site, seven configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyPoint:
    """Averaged entropy and wall-clock seconds for one (config, n)."""

    entropy: float
    seconds: float
    runs: int


def clustering_quality_experiment(
    samples: Sequence[SiteSample],
    config_keys: Sequence[str],
    sizes: Sequence[int],
    k: int = 4,
    restarts: int = 1,
    repeats: int = 3,
    seed: int = 0,
) -> dict[str, dict[int, EntropyPoint]]:
    """Average clustering entropy and time per configuration and size.

    Mirrors Section 4.1: for each site, draw ``n`` pages, cluster with
    each configuration, and measure entropy against the hand labels.
    ``restarts=1`` matches the paper's "time to run one iteration".
    """
    results: dict[str, dict[int, EntropyPoint]] = {key: {} for key in config_keys}
    for key in config_keys:
        config = get_configuration(key)
        for n in sizes:
            entropies: list[float] = []
            times: list[float] = []
            for sample in samples:
                pages = list(sample.pages)
                if len(pages) < 2:
                    continue
                for repeat in range(repeats):
                    rng = namespaced_rng(f"exp4:{key}:{n}:{repeat}", seed)
                    chosen_idx = (
                        rng.sample(range(len(pages)), n)
                        if n <= len(pages)
                        else list(range(len(pages)))
                    )
                    chosen = [pages[i] for i in chosen_idx]
                    classes = [p.class_label for p in chosen]
                    # Pre-parse outside the timed region: the paper
                    # reports parse time separately (1.2 s/page on
                    # 2003 hardware) and times the clustering itself.
                    for page in chosen:
                        page.tag_counts()
                        page.term_counts()
                    started = time.perf_counter()
                    clustering = config(
                        chosen,
                        k,
                        restarts=restarts,
                        seed=rng.randrange(2**31),
                    )
                    times.append(time.perf_counter() - started)
                    entropies.append(clustering_entropy(clustering, classes))
            results[key][n] = EntropyPoint(
                entropy=sum(entropies) / max(1, len(entropies)),
                seconds=sum(times) / max(1, len(times)),
                runs=len(entropies),
            )
    return results


# ---------------------------------------------------------------------------
# Figures 6 & 7: entropy and time vs synthetic collection size
# ---------------------------------------------------------------------------


def cluster_synthetic(
    pages: Sequence[SyntheticPage],
    representation: str,
    k: int = 4,
    restarts: int = 1,
    seed: Optional[int] = None,
) -> Clustering:
    """Cluster synthetic page signatures under one representation.

    ``representation`` ∈ {"ttag", "rtag", "tcon", "rcon", "size",
    "url", "rand"} — the same keys as the page configurations, applied
    to the signature bundles the synthetic generator emits.
    """
    if representation in ("ttag", "rtag"):
        documents = [p.tag_counts for p in pages]
    elif representation in ("tcon", "rcon"):
        documents = [p.term_counts for p in pages]
    elif representation == "size":
        values = [float(p.size) for p in pages]
        return ScalarKMeans(k, restarts=restarts, seed=seed).fit(values).clustering
    elif representation == "url":
        urls = [p.url for p in pages]
        medoids = KMedoids(
            k,
            distance=normalized_levenshtein,
            restarts=restarts,
            seed=seed,
        )
        precomputed = pairwise_normalized_levenshtein(urls)
        return medoids.fit(urls, precomputed=precomputed).clustering
    elif representation == "rand":
        return random_clustering(len(pages), k, seed=seed)
    else:
        raise ValueError(f"unknown representation {representation!r}")

    if representation in ("ttag", "tcon"):
        weighter = CorpusWeighter.fit(documents)
        vectors = weighter.transform_all(documents)
    else:
        vectors = [raw_tf_vector(d) for d in documents]
    kmeans = KMeans(k, restarts=restarts, seed=seed)
    return kmeans.fit(vectors).clustering


def synthetic_scale_experiment(
    synthetic_pages: Sequence[SyntheticPage],
    representations: Sequence[str],
    sizes: Sequence[int],
    k: int = 5,
    seed: int = 0,
    entropy_restarts: int = 5,
) -> dict[str, dict[int, EntropyPoint]]:
    """Entropy and per-iteration time as the collection grows.

    ``synthetic_pages`` must be at least ``max(sizes)`` long; each
    point clusters the first ``n`` pages. The *time* is measured for a
    single restart (one iteration, as in Figure 7); the *entropy* comes
    from a run with ``entropy_restarts`` restarts (quality-selected, as
    the paper's clusterer is), unless ``entropy_restarts <= 1`` in
    which case the timed run's clustering is scored directly.
    """
    results: dict[str, dict[int, EntropyPoint]] = {
        rep: {} for rep in representations
    }
    for rep in representations:
        for n in sizes:
            subset = list(synthetic_pages[:n])
            classes = [p.class_label for p in subset]
            started = time.perf_counter()
            clustering = cluster_synthetic(subset, rep, k=k, restarts=1, seed=seed)
            elapsed = time.perf_counter() - started
            if entropy_restarts > 1:
                clustering = cluster_synthetic(
                    subset,
                    rep,
                    k=k,
                    restarts=entropy_restarts,
                    seed=seed,
                )
            results[rep][n] = EntropyPoint(
                entropy=clustering_entropy(clustering, classes),
                seconds=elapsed,
                runs=1,
            )
    return results


# ---------------------------------------------------------------------------
# Figure 8: phase-2 P/R per subtree distance metric
# ---------------------------------------------------------------------------

#: The five distance configurations of Figure 8: each single feature
#: (path P, fanout F, depth D, node count N) and the equal-weight
#: combination.
DISTANCE_VARIANTS: dict[str, tuple[float, float, float, float]] = {
    "P": (1.0, 0.0, 0.0, 0.0),
    "F": (0.0, 1.0, 0.0, 0.0),
    "D": (0.0, 0.0, 1.0, 0.0),
    "N": (0.0, 0.0, 0.0, 1.0),
    "All": (0.25, 0.25, 0.25, 0.25),
}


def _pagelet_clusters(sample: SiteSample) -> list[list[LabeledPage]]:
    """Pre-labeled pagelet-bearing pages, grouped by true class.

    Section 4.2 isolates Phase 2 by feeding it only pages pre-labeled
    as containing QA-Pagelets; grouping by the true class stands in
    for a perfect Phase 1.
    """
    by_class: dict[str, list[LabeledPage]] = {}
    for page in sample.pagelet_pages():
        by_class.setdefault(page.class_label, []).append(page)
    return [pages for pages in by_class.values() if len(pages) >= 2]


def phase2_distance_experiment(
    samples: Sequence[SiteSample],
    variants: Mapping[str, tuple[float, float, float, float]] = None,
    subtree_config: SubtreeConfig = SubtreeConfig(),
    seed: int = 0,
) -> dict[str, PageletScore]:
    """Phase-2 precision/recall for each subtree distance variant."""
    if variants is None:
        variants = DISTANCE_VARIANTS
    scores: dict[str, PageletScore] = {}
    for name, weights in variants.items():
        config = replace(subtree_config, distance_weights=weights)
        total = PageletScore(0, 0, 0, 0)
        for sample in samples:
            for cluster_pages in _pagelet_clusters(sample):
                identifier = PageletIdentifier(config, seed=seed)
                result = identifier.identify(cluster_pages)
                total = total.merge(
                    score_pagelets(result.pagelets, cluster_pages)
                )
        scores[name] = total
    return scores


# ---------------------------------------------------------------------------
# Figure 9: intra-subtree-set similarity histogram, with/without TFIDF
# ---------------------------------------------------------------------------


def similarity_histogram_experiment(
    samples: Sequence[SiteSample],
    use_tfidf: bool,
    buckets: int = 5,
    subtree_config: SubtreeConfig = SubtreeConfig(),
    seed: int = 0,
) -> list[tuple[str, int]]:
    """Histogram of common-subtree-set intra similarities.

    Returns (bucket label, count) pairs over all common subtree sets
    found in the pagelet-bearing clusters of all samples.
    """
    counts = [0] * buckets
    for sample in samples:
        for cluster_pages in _pagelet_clusters(sample):
            candidates = candidate_records_for_cluster(cluster_pages)
            if not any(candidates):
                continue
            sets = find_common_subtree_sets(
                candidates,
                weights=subtree_config.distance_weights,
                max_assign_distance=subtree_config.max_assign_distance,
                path_code_length=subtree_config.path_code_length,
                seed=seed,
            )
            min_pages = max(1, int(subtree_config.min_support * len(cluster_pages)))
            for subtree_set in sets:
                if subtree_set.support < min_pages:
                    continue
                similarity = intra_set_similarity(subtree_set, use_tfidf=use_tfidf)
                index = min(buckets - 1, int(similarity * buckets))
                counts[index] += 1
    width = 1.0 / buckets
    return [
        (f"{i * width:.1f}-{(i + 1) * width:.1f}", counts[i]) for i in range(buckets)
    ]


# ---------------------------------------------------------------------------
# Figure 10: overall two-phase P/R per clustering configuration
# ---------------------------------------------------------------------------


def overall_experiment(
    samples: Sequence[SiteSample],
    config_keys: Sequence[str],
    base_config: ThorConfig = ThorConfig(),
    seed: int = 0,
) -> dict[str, PageletScore]:
    """Full two-phase extraction P/R for each page-clustering approach
    (pooled over all sites)."""
    per_site = overall_experiment_per_site(
        samples, config_keys, base_config, seed
    )
    scores: dict[str, PageletScore] = {}
    for key, site_scores in per_site.items():
        total = PageletScore(0, 0, 0, 0)
        for score in site_scores:
            total = total.merge(score)
        scores[key] = total
    return scores


def overall_experiment_per_site(
    samples: Sequence[SiteSample],
    config_keys: Sequence[str],
    base_config: ThorConfig = ThorConfig(),
    seed: int = 0,
) -> dict[str, list[PageletScore]]:
    """Per-site full-pipeline scores — the sampling unit for bootstrap
    confidence intervals (:mod:`repro.eval.significance`)."""
    scores: dict[str, list[PageletScore]] = {}
    for key in config_keys:
        config = replace(
            base_config,
            clustering=replace(base_config.clustering, configuration=key),
            seed=seed,
        )
        thor = Thor(config)
        site_scores: list[PageletScore] = []
        for sample in samples:
            result = thor.extract(list(sample.pages))
            site_scores.append(score_pagelets(result.pagelets, sample.pages))
        scores[key] = site_scores
    return scores


# ---------------------------------------------------------------------------
# Figure 11: P/R vs number of clusters passed to Phase 2
# ---------------------------------------------------------------------------


def tradeoff_experiment(
    samples: Sequence[SiteSample],
    m_values: Sequence[int] = (1, 2, 3),
    k: int = 3,
    base_config: ThorConfig = ThorConfig(),
    seed: int = 0,
) -> dict[int, PageletScore]:
    """P/R as a function of top-m clusters forwarded (k=3, TFIDF tags)."""
    scores: dict[int, PageletScore] = {}
    for m in m_values:
        config = replace(
            base_config,
            clustering=replace(base_config.clustering, k=k, top_m=m),
            seed=seed,
        )
        thor = Thor(config)
        total = PageletScore(0, 0, 0, 0)
        for sample in samples:
            result = thor.extract(list(sample.pages))
            total = total.merge(score_pagelets(result.pagelets, sample.pages))
        scores[m] = total
    return scores


# ---------------------------------------------------------------------------
# Multisite probing: Stage-1 data collection fanned out across sites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultisiteProbeReport:
    """Corpus-collection run: per-site samples plus probe telemetry."""

    samples: tuple[SiteSample, ...]
    telemetries: tuple  # one ProbeTelemetry per site, in site order
    #: Wall-clock seconds for the whole collection run.
    wall_s: float

    @property
    def pages_collected(self) -> int:
        return sum(len(s.pages) for s in self.samples)


def multisite_probe_experiment(
    sites: Sequence,
    probe_config: Optional["ProbeConfig"] = None,
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
) -> MultisiteProbeReport:
    """Probe every site concurrently under one shared worker pool.

    The concurrent analogue of looping
    :func:`repro.deepweb.corpus.probe_site` over a corpus: each site
    keeps the per-site seed convention (``seed * 1000 + index``, the
    same streams :func:`~repro.deepweb.corpus.generate_corpus` uses) so
    the collected samples are identical to the serial loop's — the
    fan-out only changes wall-clock, never contents.
    """
    from repro.config import ProbeConfig
    from repro.probe.executor import SiteJob, probe_sites

    probe_config = probe_config or ProbeConfig()
    jobs = []
    for index, site in enumerate(sites):
        site_seed = seed * 1000 + index
        prober = QueryProber(probe_config, seed=site_seed)
        jobs.append(
            SiteJob(site, tuple(prober.select_terms()), seed=site_seed)
        )
    started = time.perf_counter()
    results = probe_sites(jobs, config=probe_config, execution=execution)
    wall_s = time.perf_counter() - started
    samples = tuple(
        SiteSample(
            site,
            tuple(p for p in result.pages if isinstance(p, LabeledPage)),
        )
        for site, result in zip(sites, results)
    )
    return MultisiteProbeReport(
        samples=samples,
        telemetries=tuple(r.telemetry for r in results),
        wall_s=wall_s,
    )


# ---------------------------------------------------------------------------
# In-text numbers: corpus statistics, k/restart sensitivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusStats:
    """The per-page averages quoted in Section 4.1."""

    pages: int
    avg_distinct_tags: float
    avg_distinct_terms: float
    avg_page_bytes: float
    avg_parse_seconds: float


def corpus_statistics(samples: Sequence[SiteSample]) -> CorpusStats:
    """Average distinct tags/terms/bytes and parse time per page."""
    pages = [p for sample in samples for p in sample.pages]
    if not pages:
        return CorpusStats(0, 0.0, 0.0, 0.0, 0.0)
    parse_times: list[float] = []
    tags = 0
    terms = 0
    size = 0
    for page in pages:
        from repro.html.parser import parse

        started = time.perf_counter()
        tree = parse(page.html)
        parse_times.append(time.perf_counter() - started)
        tags += len(tree.tag_counts())
        terms += page.distinct_terms_count()
        size += page.size
    n = len(pages)
    return CorpusStats(
        pages=n,
        avg_distinct_tags=tags / n,
        avg_distinct_terms=terms / n,
        avg_page_bytes=size / n,
        avg_parse_seconds=sum(parse_times) / n,
    )


def sensitivity_experiment(
    samples: Sequence[SiteSample],
    k_values: Sequence[int] = (2, 3, 4, 5),
    restart_values: Sequence[int] = (2, 5, 10, 20),
    seed: int = 0,
) -> dict[tuple[int, int], float]:
    """Average entropy for each (k, restarts) pair — the in-text
    sensitivity sweep ("ranging the number of clusters from 2 to 5 and
    the internal cluster iterations from 2 to 20").

    Every (k, restarts) point re-clusters the *same* collection, so the
    keyed :func:`repro.runtime.cached_weighted_space` cache pays the
    vector-space interning cost once per site instead of once per
    point."""
    config = get_configuration("ttag")
    results: dict[tuple[int, int], float] = {}
    for k in k_values:
        for restarts in restart_values:
            entropies = []
            for sample in samples:
                pages = list(sample.pages)
                clustering = config(pages, k, restarts=restarts, seed=seed)
                entropies.append(
                    clustering_entropy(clustering, [p.class_label for p in pages])
                )
            results[(k, restarts)] = sum(entropies) / max(1, len(entropies))
    return results
