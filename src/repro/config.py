"""Configuration for the THOR pipeline.

Every tunable the paper mentions is a field here, with the paper's
value as the default:

- K-Means: k clusters (paper explores 2–5), 10 restarts.
- Cluster ranking: equal-weight linear combination of the three
  criteria; top-m clusters passed to Phase 2 (Figure 11 shows m=2 is
  the sweet spot when k=3).
- Subtree distance: w1..w4 = 0.25 each; q-letter codes with q=1.
- Static-content prune threshold: 0.5 (paper: "not essential").
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.resilience.faults import FaultPlan

#: Valid :class:`ExecutionConfig` cache policies.
CACHE_POLICIES = ("on", "off")

#: Pipeline stages a watchdog deadline can be set for.
WATCHDOG_STAGES = ("probe", "cluster", "identify", "partition")


@dataclass(frozen=True)
class StageTimeouts:
    """Per-stage wall-clock watchdog deadlines, in seconds.

    One deadline fits no real pipeline: probing is network-bound
    (seconds to minutes of latency, almost no CPU) while identification
    is CPU-bound (no latency, all compute), so each stage has its own.
    ``None`` fields run that stage without a watchdog.
    """

    probe: Optional[float] = None
    cluster: Optional[float] = None
    identify: Optional[float] = None
    partition: Optional[float] = None

    def __post_init__(self) -> None:
        for stage in WATCHDOG_STAGES:
            value = getattr(self, stage)
            if value is not None and value <= 0:
                raise ValueError(
                    f"StageTimeouts.{stage} must be > 0, got {value}"
                )


@dataclass(frozen=True)
class ExecutionConfig:
    """How the pipeline computes: concurrency, caching, recovery.

    One object answers the *how* questions every stage used to answer
    separately: how many probe and crawl fetches a site keeps in
    flight (``n_jobs``), whether expensive intermediates persist
    across *processes* in an on-disk artifact store (``cache_dir`` /
    ``artifact_cache`` — :mod:`repro.artifacts`), and how failed
    fleet chunks and slow stages are handled. Nothing here starts a
    process: a site computes in the driving process, and only the
    fleet's site fan-out (:attr:`FleetConfig.site_jobs`) runs sites
    in worker processes.
    """

    #: In-flight probe and crawl fetches of one site: 1 = serial
    #: (default), N > 1 = up to N concurrent fetches, 0 = one per
    #: available core. It is the default for
    #: :attr:`ProbeConfig.concurrency`
    #: (:func:`repro.probe.executor.resolve_probe_concurrency`) and
    #: starts no process; results are byte-identical at every value.
    n_jobs: int = 1
    #: Root directory of the persistent artifact store. ``None`` defers
    #: to the ``REPRO_CACHE_DIR`` environment variable; with neither
    #: set, no on-disk cache is used (see :func:`resolve_cache_dir`).
    cache_dir: Optional[str] = None
    #: "on" lets a configured ``cache_dir`` (or ``REPRO_CACHE_DIR``)
    #: take effect; "off" disables the on-disk artifact store entirely
    #: (the CLI ``--no-artifact-cache`` flag).
    artifact_cache: str = "on"
    #: "on" recovers failed fleet chunks (retries with seeded backoff,
    #: then in-process serial fallback — see
    #: :func:`repro.runtime.run_chunked`); "off" raises a
    #: :class:`~repro.errors.ChunkFailedError` (with the chunk's
    #: payload indices attached) on the first failure instead.
    recovery: str = "on"
    #: Extra attempts a failed fleet chunk earns before the serial
    #: fallback (counts retries, not total attempts; 0 = fall straight
    #: back to serial).
    chunk_retries: int = 2
    #: Per-stage wall-clock deadlines (:class:`StageTimeouts`;
    #: ``None`` = no watchdog). A stage that exceeds its deadline is
    #: cancelled: per-cluster Phase-2 analysis degrades (the cluster is
    #: quarantined), other stages raise
    #: :class:`~repro.errors.StageTimeoutError`.
    stage_timeouts: Optional[StageTimeouts] = None
    #: Minimum fraction of the page sample that must survive the
    #: quarantine scan for extraction to proceed; below it the sample
    #: is considered junk and :class:`~repro.errors.ExtractionError`
    #: is raised rather than extracting from noise.
    min_surviving_fraction: float = 0.5
    #: LRU entry cap of the Phase-2 quadruple distance-matrix memo
    #: (:func:`repro.core.subtree_sets.set_quad_matrix_memo_limit`);
    #: 0 disables memoization. Long fleet runs visiting many sites
    #: would grow an unbounded memo without limit.
    distance_memo_entries: int = 256

    def __post_init__(self) -> None:
        if self.n_jobs < 0:
            raise ValueError(f"n_jobs must be >= 0, got {self.n_jobs}")
        if self.artifact_cache not in CACHE_POLICIES:
            raise ValueError(
                f"unknown artifact cache policy {self.artifact_cache!r}; "
                f"valid: {', '.join(CACHE_POLICIES)}"
            )
        if self.recovery not in CACHE_POLICIES:
            raise ValueError(
                f"unknown recovery policy {self.recovery!r}; "
                f"valid: {', '.join(CACHE_POLICIES)}"
            )
        if self.chunk_retries < 0:
            raise ValueError(
                f"chunk_retries must be >= 0, got {self.chunk_retries}"
            )
        if not 0.0 <= self.min_surviving_fraction <= 1.0:
            raise ValueError(
                "min_surviving_fraction must be in [0, 1], got "
                f"{self.min_surviving_fraction}"
            )
        if self.distance_memo_entries < 0:
            raise ValueError(
                "distance_memo_entries must be >= 0, got "
                f"{self.distance_memo_entries}"
            )


def resolve_n_jobs(
    execution: Optional[ExecutionConfig] = None, n_jobs: Optional[int] = None
) -> int:
    """Resolve a worker-process count to a concrete integer >= 1.

    An explicit ``n_jobs`` wins; otherwise an :class:`ExecutionConfig`
    supplies its own; otherwise 1 (serial). 0 means one worker per
    available core.

    >>> resolve_n_jobs(ExecutionConfig(n_jobs=4))
    4
    >>> resolve_n_jobs(None)
    1
    """
    if n_jobs is None and execution is not None:
        n_jobs = execution.n_jobs
    if n_jobs is None:
        return 1
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    if n_jobs == 0:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # pragma: no cover - non-POSIX only
            return os.cpu_count() or 1
    return n_jobs


def resolve_cache_dir(execution: Optional[ExecutionConfig] = None) -> Optional[str]:
    """Resolve the on-disk artifact-store root, or ``None`` when the
    persistent cache is disabled.

    An explicit ``ExecutionConfig.cache_dir`` wins; otherwise the
    ``REPRO_CACHE_DIR`` environment variable fills in. Setting
    ``artifact_cache="off"`` disables the store regardless of either
    (that is the CLI ``--no-artifact-cache`` escape hatch).

    >>> resolve_cache_dir(ExecutionConfig(cache_dir="/tmp/artifacts"))
    '/tmp/artifacts'
    >>> resolve_cache_dir(
    ...     ExecutionConfig(cache_dir="/tmp/artifacts", artifact_cache="off")
    ... ) is None
    True
    """
    if execution is not None:
        if execution.artifact_cache == "off":
            return None
        if execution.cache_dir:
            return execution.cache_dir
    return os.environ.get("REPRO_CACHE_DIR") or None


def resolve_stage_timeout(
    execution: Optional[ExecutionConfig], stage: str
) -> Optional[float]:
    """The watchdog deadline of one pipeline stage (``None`` = none).

    Unknown stage names raise — a misspelled stage would otherwise
    silently run without its intended deadline.

    >>> ex = ExecutionConfig(stage_timeouts=StageTimeouts(probe=120.0))
    >>> resolve_stage_timeout(ex, "probe")
    120.0
    >>> resolve_stage_timeout(ex, "identify") is None
    True
    """
    if stage not in WATCHDOG_STAGES:
        raise ValueError(
            f"unknown watchdog stage {stage!r}; "
            f"valid: {', '.join(WATCHDOG_STAGES)}"
        )
    if execution is None or execution.stage_timeouts is None:
        return None
    return getattr(execution.stage_timeouts, stage)


#: Valid :class:`IncrementalConfig` modes.
INCREMENTAL_MODES = ("auto", "assign", "refit")


@dataclass(frozen=True)
class IncrementalConfig:
    """How incremental re-extraction reacts to template drift.

    Consulted only when a run opts in via
    ``RunOptions(incremental=True)`` (or ``repro run --incremental``).
    See :mod:`repro.incremental` and DESIGN.md §15 for the three
    drift tiers the mode/threshold pair selects between.
    """

    #: Maximum per-page fingerprint drift (1 − Jaccard similarity of
    #: the page's tag-path set against its best-matching stored
    #: cluster) before the stored model is declared stale and the run
    #: falls back to a full refit.
    drift_threshold: float = 0.35
    #: ``"auto"`` (default): three-tier behavior — replay unchanged
    #: pages, assign in-threshold changes to stored clusters, refit
    #: past the threshold. ``"assign"``: never refit on drift — every
    #: changed page is assigned to its nearest stored cluster however
    #: far it drifted (a model miss still refits; there is nothing to
    #: assign against). ``"refit"``: always refit and re-persist the
    #: model (the model-rebuild escape hatch).
    mode: str = "auto"

    def __post_init__(self) -> None:
        if not 0.0 <= self.drift_threshold <= 1.0:
            raise ValueError(
                "drift_threshold must be in [0, 1], got "
                f"{self.drift_threshold}"
            )
        if self.mode not in INCREMENTAL_MODES:
            raise ValueError(
                f"unknown incremental mode {self.mode!r}; "
                f"valid: {', '.join(INCREMENTAL_MODES)}"
            )


@dataclass(frozen=True)
class RunOptions:
    """Per-invocation options of one pipeline run — the job surface.

    :func:`repro.api.run`, :func:`repro.api.extract` and
    :func:`repro.api.run_fleet` (and ``Thor.run``/``extract``/
    ``refresh``) all accept one ``RunOptions`` instead of a sprawl of
    keyword arguments: *what* to compute rides on the positional
    arguments, *how this invocation behaves* (naming, resumption,
    reuse of the stored model, chaos) rides here. Options are
    config-fingerprint-neutral by construction: nothing in this object
    may change a result digest. ``incremental`` is the one deliberate
    carve-out: it substitutes replayed/assigned results from the
    stored fitted model, and the no-drift invariant (DESIGN.md §15)
    is what keeps those bitwise identical to a full refit.
    """

    #: Name of the run (or, for :func:`repro.api.run_fleet`, the fleet)
    #: for stage checkpointing in the artifact store; ``None`` = an
    #: anonymous, checkpoint-free run (fleets derive a spec-keyed id).
    run_id: Optional[str] = None
    #: Skip stages (or fleet sites) already checkpointed under
    #: ``run_id``; the resumed result digest is bitwise identical to an
    #: uninterrupted run's. Requires ``run_id``.
    resume: bool = False
    #: Seeded chaos plan injected into the run (tests/CI drills);
    #: ``None`` — the default — injects nothing.
    fault_plan: Optional["FaultPlan"] = None
    #: Reuse the site's persisted fitted model (``models/`` artifact
    #: kind) instead of refitting: unchanged pages replay, in-threshold
    #: changes are assigned to stored clusters, and drift past
    #: ``IncrementalConfig.drift_threshold`` (or a model miss) falls
    #: back to a counted full refit. See :mod:`repro.incremental`.
    incremental: bool = False
    #: Observer called with the stage name ("probe", "extract",
    #: "partition") as each top-level stage *starts computing* (skipped
    #: stages resumed from a checkpoint do not fire). The fleet ledger
    #: uses this for its per-site state machine. Must be picklable for
    #: cross-process runs when set; excluded from equality.
    on_stage: Optional[Callable[[str], None]] = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True)
class FleetConfig:
    """How :func:`repro.api.run_fleet` schedules sites over workers.

    Orthogonal to :class:`ExecutionConfig` (*how one site computes*):
    this is *how many sites run at once and when the invocation
    stops*. Per-tenant quotas and priorities are data, not policy, and
    live on the :class:`~repro.fleet.FleetSpec`.
    """

    #: Sites in flight, each in its own worker process (CLI ``repro
    #: fleet --jobs``): 1 = one site at a time in the driving process,
    #: N > 1 = that many worker processes, 0 = one per available core.
    #: This is the only setting that starts processes; a site's own
    #: ``ExecutionConfig.n_jobs`` still bounds its in-flight fetches.
    site_jobs: int = 1
    #: Stop admitting new sites after this many have been attempted in
    #: one ``run_fleet`` invocation (``None`` = no cap). Remaining
    #: sites stay ``queued`` in the ledger; a later ``resume`` run
    #: finishes them. This is the graceful-drain knob — an operator
    #: budget per invocation, and the deterministic stand-in for a
    #: mid-fleet kill in tests.
    max_sites_per_run: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site_jobs < 0:
            raise ValueError(f"site_jobs must be >= 0, got {self.site_jobs}")
        if self.max_sites_per_run is not None and self.max_sites_per_run < 1:
            raise ValueError(
                "max_sites_per_run must be >= 1 (or None), got "
                f"{self.max_sites_per_run}"
            )


@dataclass(frozen=True)
class ClusteringConfig:
    """Phase 1 (page clustering) settings."""

    #: Number of page clusters. The paper varies k from 2 to 5 and
    #: finds the system insensitive because over-provisioned k "merely
    #: generates more refined clusters". 5 covers the four natural
    #: classes (multi-match, single-match, no-match, exception) plus
    #: one refinement slot for per-page template jitter.
    k: int = 5
    #: K-Means restarts; paper: "running the clusterer 10 times
    #: provided a balance".
    restarts: int = 10
    #: Which page representation to use; "ttag" is THOR's choice.
    configuration: str = "ttag"
    #: Number of top-ranked clusters forwarded to Phase 2.
    top_m: int = 2
    #: Clusters smaller than this are skipped when filling the top-m
    #: slots (the next ranked cluster takes the slot): cross-page
    #: analysis needs contrast, and a 2-page refinement cluster offers
    #: almost none while crowding out a full answer-page class.
    min_cluster_pages: int = 3
    #: Weights of the three cluster-ranking criteria (distinct terms,
    #: max fanout, page size); the paper uses "a simple linear
    #: combination".
    ranking_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self) -> None:
        for name in ("k", "restarts", "top_m"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class SubtreeConfig:
    """Phase 2 (QA-Pagelet identification) settings."""

    #: Weights (w1..w4) of the path / fanout / depth / node-count terms
    #: of the subtree distance; paper: initially equal at 0.25.
    distance_weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    #: Length of simplified tag codes (paper example uses q = 1).
    path_code_length: int = 1
    #: Maximum shape distance for a subtree to join a common subtree
    #: set; subtrees farther than this from every prototype stay
    #: unassigned.
    max_assign_distance: float = 0.5
    #: Common subtree sets with mean intra-set content similarity above
    #: this are considered static and pruned (paper: 0.5, not
    #: sensitive).
    static_similarity_threshold: float = 0.5
    #: A common subtree set must have members in at least this fraction
    #: of the cluster's pages to participate in ranking (guards against
    #: one-page-only accidental groupings).
    min_support: float = 0.5
    #: Selection score weights: (contained dynamic subtrees, depth).
    selection_weights: tuple[float, float] = (0.5, 0.5)
    #: Selection descends from the page-level wrapper into a contained
    #: set only while that set still covers at least this fraction of
    #: the dynamic content; the stop point is the QA-Pagelet.
    coverage_ratio: float = 0.3
    #: Require candidates to contain a branching node (fanout > 1).
    #: The paper's third single-page rule is ambiguous; off by default.
    require_branching: bool = False


@dataclass(frozen=True)
class ProbeConfig:
    """Stage 1 (query probing) settings.

    The first two fields are the paper's probe mix; the rest configure
    the concurrent executor (:mod:`repro.probe`): worker-pool bound,
    per-site rate budget, per-attempt timeout, and transient-failure
    retries. Term selection and result contents are seed-deterministic
    at every ``concurrency`` (see DESIGN.md §9).
    """

    #: Dictionary probes per site (paper: 100 random dictionary words).
    dictionary_queries: int = 100
    #: Nonsense-word probes per site (paper: 10).
    nonsense_queries: int = 10
    #: In-flight probe bound: ``None`` inherits ``ExecutionConfig.n_jobs``
    #: (so the CLI's ``--jobs`` drives Stage 1 too), 1 = serial,
    #: N > 1 = that many workers, 0 = one per available core.
    concurrency: Optional[int] = None
    #: Per-site rate budget in probes/second (token bucket; ``None`` =
    #: unlimited). Retries spend budget like first attempts.
    rate: Optional[float] = None
    #: Token-bucket burst depth: probes a quiet site may absorb
    #: instantly before the sustained ``rate`` takes over.
    burst: int = 4
    #: Per-attempt timeout in seconds (``None`` = no timeout).
    timeout_s: Optional[float] = None
    #: Extra attempts for transient failures (timeout / throttled /
    #: server error). 0 disables retrying.
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.dictionary_queries < 0 or self.nonsense_queries < 0:
            raise ValueError("probe query counts must be >= 0")
        if self.concurrency is not None and self.concurrency < 0:
            raise ValueError(f"concurrency must be >= 0, got {self.concurrency}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be > 0 probes/s, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True)
class CrawlConfig:
    """How :func:`repro.api.crawl` acquires pages (the crawl frontier).

    Split the same way :class:`FleetConfig` is: *corpus-shaping* knobs
    (``max_pages``, ``batch_size``, ``max_depth``, ``exclude``,
    ``max_retries``, ``timeout_s``) enter the crawl fingerprint — a
    checkpoint written under one set cannot be resumed under another —
    while *pacing* knobs (``rate``, ``burst``, ``max_pages_per_run``,
    ``checkpoint_every``) may change between invocations of the same
    crawl: politeness and drain budgets are operator policy, not part
    of what the corpus *is*.
    """

    #: Total URLs the crawl may attempt (successes and permanent
    #: failures both count), across all invocations of one crawl id.
    max_pages: int = 200
    #: Frontier items admitted per scheduling round. Fixed per crawl
    #: (fingerprinted): the round structure must not depend on
    #: ``--jobs`` or the corpus order could.
    batch_size: int = 8
    #: Deepest link depth admitted to the frontier (``None`` = no cap).
    max_depth: Optional[int] = None
    #: Robots-style exclusion patterns: ``/path`` (any host), ``host``
    #: (whole host), or ``host:/path``. See :mod:`repro.frontier.robots`.
    exclude: tuple[str, ...] = ()
    #: Per-site politeness rate in fetches/second (token bucket shared
    #: across the whole crawl via the site's lane; ``None`` = unlimited).
    rate: Optional[float] = None
    #: Token-bucket burst depth per politeness lane.
    burst: int = 2
    #: Per-attempt fetch timeout in seconds (``None`` = no timeout).
    timeout_s: Optional[float] = None
    #: Extra attempts for transient fetch failures.
    max_retries: int = 2
    #: Stop after this many attempts in one invocation (``None`` = run
    #: to ``max_pages``/exhaustion). The graceful-drain knob: remaining
    #: work stays checkpointed for ``--resume``, mirroring
    #: ``FleetConfig.max_sites_per_run``.
    max_pages_per_run: Optional[int] = None
    #: Publish the crawl checkpoint every N scheduling rounds (1 =
    #: every round; higher trades re-fetch work on crash for fewer
    #: store writes).
    checkpoint_every: int = 1
    #: Pages per JSONL corpus shard under the artifact store's
    #: ``corpus/`` kind (``None`` = keep the whole corpus inline in the
    #: checkpoint record). A pacing knob like ``checkpoint_every`` —
    #: deliberately outside the crawl fingerprint: sharding changes how
    #: the corpus is stored, never what it is.
    corpus_shard_pages: Optional[int] = None

    def __post_init__(self) -> None:
        # A list of patterns (argparse's ``append``) names the same crawl
        # as the tuple: one fingerprint, and a hashable config.
        object.__setattr__(self, "exclude", tuple(self.exclude))
        if self.max_pages < 1:
            raise ValueError(f"max_pages must be >= 1, got {self.max_pages}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be > 0 fetches/s, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_pages_per_run is not None and self.max_pages_per_run < 1:
            raise ValueError(
                "max_pages_per_run must be >= 1 (or None), got "
                f"{self.max_pages_per_run}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.corpus_shard_pages is not None and self.corpus_shard_pages < 1:
            raise ValueError(
                "corpus_shard_pages must be >= 1 (or None), got "
                f"{self.corpus_shard_pages}"
            )


@dataclass(frozen=True)
class TransportConfig:
    """How the real-HTTP fetch layer (:mod:`repro.transport`) behaves.

    Deliberately *not* part of the crawl fingerprint: transport knobs
    (timeouts, pool sizes, breaker thresholds) are operator policy
    about how pages are moved over the wire, not about what the corpus
    is — the same stance :class:`CrawlConfig` takes for its pacing
    knobs.
    """

    #: ``User-Agent`` header sent with every request.
    user_agent: str = "repro-thor/0.1 (+https://example.invalid/thor)"
    #: TCP connect timeout in seconds (``None`` = system default).
    connect_timeout_s: Optional[float] = 5.0
    #: Per-read socket timeout in seconds; the body as a whole gets
    #: ``4 ×`` this as a slow-loris deadline (``None`` = no timeout).
    read_timeout_s: Optional[float] = 10.0
    #: Redirect hops allowed before a chain counts as a redirect storm.
    max_redirects: int = 5
    #: Response-body size cap in bytes; beyond it the fetch fails as
    #: non-retryable ``oversize``.
    max_response_bytes: int = 4_000_000
    #: Idle keep-alive connections kept pooled per (scheme, host, port).
    pool_per_host: int = 4
    #: Charset when neither header nor meta sniff names one, and the
    #: fallback for unknown/undecodable charsets (replacement-counted).
    default_charset: str = "utf-8"
    #: Fetch and honor each site's ``robots.txt`` (fail-open on 5xx,
    #: fail-closed on 403). Off = no robots traffic at all.
    obey_robots: bool = True
    #: Consecutive fetch failures that trip a site's circuit breaker.
    breaker_failures: int = 5
    #: Base cooldown of an open breaker, counted in *rejected attempts*
    #: (not seconds — keeps breaker behavior seed-deterministic); the
    #: per-trip jitter adds up to the same amount again.
    breaker_cooldown: int = 8

    def __post_init__(self) -> None:
        if not self.user_agent.strip():
            raise ValueError("user_agent must be non-empty")
        if self.connect_timeout_s is not None and self.connect_timeout_s <= 0:
            raise ValueError(
                f"connect_timeout_s must be > 0, got {self.connect_timeout_s}"
            )
        if self.read_timeout_s is not None and self.read_timeout_s <= 0:
            raise ValueError(
                f"read_timeout_s must be > 0, got {self.read_timeout_s}"
            )
        if self.max_redirects < 0:
            raise ValueError(
                f"max_redirects must be >= 0, got {self.max_redirects}"
            )
        if self.max_response_bytes < 1:
            raise ValueError(
                f"max_response_bytes must be >= 1, got {self.max_response_bytes}"
            )
        if self.pool_per_host < 0:
            raise ValueError(
                f"pool_per_host must be >= 0, got {self.pool_per_host}"
            )
        if not self.default_charset.strip():
            raise ValueError("default_charset must be non-empty")
        if self.breaker_failures < 1:
            raise ValueError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.breaker_cooldown < 1:
            raise ValueError(
                f"breaker_cooldown must be >= 1, got {self.breaker_cooldown}"
            )


@dataclass(frozen=True)
class ThorConfig:
    """Top-level pipeline configuration."""

    probing: ProbeConfig = field(default_factory=ProbeConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    subtrees: SubtreeConfig = field(default_factory=SubtreeConfig)
    #: Seed for every stochastic component (K-Means starts, probe word
    #: sampling, prototype page choice); None = nondeterministic.
    seed: int | None = None
    #: How the pipeline computes (in-flight fetches, caching, recovery) —
    #: one execution config shared by probing, the artifact store,
    #: subtree matching and the fleet.
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: How :func:`repro.api.run_fleet` schedules many sites of this
    #: configuration over workers (site-level parallelism and the
    #: graceful-drain budget). Irrelevant — and ignored — for
    #: single-site runs.
    fleet: FleetConfig = field(default_factory=FleetConfig)
    #: How :func:`repro.api.crawl` acquires pages (frontier batching,
    #: politeness lanes, drain budget). Ignored by non-crawl verbs.
    crawl: CrawlConfig = field(default_factory=CrawlConfig)
    #: How the real-HTTP fetch layer moves those pages over the wire
    #: (timeouts, pooling, robots, circuit breakers). Only consulted
    #: when a crawl builds its own :class:`repro.transport.HttpFetcher`;
    #: simulated-web crawls never touch it.
    transport: TransportConfig = field(default_factory=TransportConfig)
    #: How incremental re-extraction (``RunOptions(incremental=True)``)
    #: reacts to template drift. Deliberately excluded from the config
    #: fingerprint: drift policy decides *how much stored work to
    #: reuse*, not what a cold result is.
    incremental: IncrementalConfig = field(default_factory=IncrementalConfig)


DEFAULT_CONFIG = ThorConfig()
