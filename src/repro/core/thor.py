"""The end-to-end THOR pipeline (Figure 2).

``Thor`` wires the three stages together:

1. :meth:`Thor.probe` — sample a deep-web source with probe queries;
2. :meth:`Thor.extract` — Phase 1 (page clustering + ranking) and
   Phase 2 (QA-Pagelet identification) over the top-m clusters;
3. :meth:`Thor.partition` — Stage 3 QA-Object partitioning.

:meth:`Thor.run` does all three, and :meth:`Thor.refresh` re-runs
Stages 2+3 against the site's stored model. Each stage is also usable
standalone, which is how the evaluation isolates Phase 2 (Figure 8)
from Phase 1.

``run``, ``extract`` and ``refresh`` are thin entry points onto one
stage driver (:meth:`Thor._drive`, DESIGN.md §11) that calls each
stage — probe, cluster, identify, partition — from exactly one place.
Before a stage computes, the driver looks up a stored answer: a
resumed run (``RunOptions.resume``) reads the probe and Phase-1
checkpoints of its run manifest, an incremental run
(``RunOptions.incremental``) assigns Phase 1 from the site model and
replays the Phase-2/3 outcome of every cluster whose membership is
unchanged (DESIGN.md §15). A lookup that misses falls through to the
same computation a cold run does, so resumed == uninterrupted and
incremental == cold hold by construction.

The driver is fault-tolerant: pages and clusters whose analysis raises
a :class:`~repro.errors.ThorError` are *quarantined* with structured
reasons instead of aborting the run (as long as
``ExecutionConfig.min_surviving_fraction`` of the sample survives),
stages run under optional per-stage wall-clock watchdogs
(``ExecutionConfig.stage_timeouts``), and every run's degradations are
accounted for on a :class:`~repro.resilience.report.RunReport`
(``ThorResult.report``). A seeded
:class:`~repro.resilience.faults.FaultPlan` can be attached for
deterministic chaos testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Optional, Sequence

from repro.artifacts.pages import PagePack
from repro.cluster.assignments import Clustering, assign_to_centroids
from repro.config import (
    DEFAULT_CONFIG,
    RunOptions,
    ThorConfig,
    resolve_stage_timeout,
)
from repro.core.cluster_ranking import score_clusters
from repro.core.identification import IdentificationResult, PageletIdentifier
from repro.core.page import Page
from repro.core.page_clustering import PageClusterer, PageClusteringResult
from repro.core.pagelet import PartitionedPagelet, QAObject, QAPagelet
from repro.core.partitioning import ObjectPartitioner
from repro.core.probing import DeepWebSource, ProbeResult, QueryProber
from repro.errors import ExtractionError, ResumeError, ThorError
from repro.html.paths import PathResolutionError, PathSyntaxError, resolve_path
from repro.incremental.fingerprints import fingerprint_drift, page_fingerprint
from repro.incremental.model import (
    ClusterRecord,
    PageletRecord,
    SiteModel,
    load_model,
    page_content_key,
    save_model,
    site_identity,
)
from repro.resilience.faults import FaultPlan, activate_fault_plan, active_fault_plan
from repro.resilience.manifest import (
    config_fingerprint,
    load_cluster_checkpoint,
    load_probe_checkpoint,
    open_manifest,
    save_cluster_checkpoint,
    save_manifest,
    save_probe_checkpoint,
)
from repro.resilience.quarantine import (
    STAGE_IDENTIFY,
    STAGE_PARTITION,
    STAGE_SIGNATURE,
    quarantine_record,
)
from repro.resilience.report import (
    RunReport,
    RunReportBuilder,
    activate_report,
)
from repro.resilience.watchdog import run_stage
from repro.runtime import artifact_store_for
from repro.signatures.content import content_signature
from repro.signatures.tag import tag_signature

#: Clustering configurations the incremental model can assign against
#: (tf-idf vector spaces reconstructible from the stored vocabulary +
#: idf). Other configurations never persist a model, so an incremental
#: run under them degrades to a counted model miss → full refit.
_INCREMENTAL_SIGNATURES = {
    "ttag": tag_signature,
    "tcon": content_signature,
}


@dataclass(frozen=True)
class ThorResult:
    """The full pipeline output for one site."""

    pages: tuple[Page, ...]
    clustering: PageClusteringResult
    #: Phase-2 results, one per forwarded cluster (ranking order).
    identifications: tuple[IdentificationResult, ...] = field(repr=False)
    #: All extracted QA-Pagelets across the forwarded clusters.
    pagelets: tuple[QAPagelet, ...] = ()
    #: Stage-3 output, parallel to ``pagelets``.
    partitioned: tuple[PartitionedPagelet, ...] = field(default=(), repr=False)
    #: Resilience accounting for the run that produced this result
    #: (quarantined units, chunk retries, fallbacks, timeouts, resume
    #: hits). Excluded from equality: two runs that computed the same
    #: pagelets are the same result however bumpy the road was.
    report: Optional[RunReport] = field(default=None, repr=False, compare=False)

    def pagelet_for_page(self, page: Page) -> Optional[QAPagelet]:
        """The pagelet extracted from ``page``, if any."""
        for pagelet in self.pagelets:
            if pagelet.page is page:
                return pagelet
        return None


@dataclass
class _SiteRun:
    """What one stage-driver call knows about its input pages."""

    #: The site name of the model and page-pack slots. It comes from
    #: the input pages, so a quarantined first page moves neither slot.
    site: str
    #: ``id(page)`` → content key (see :meth:`key`).
    keys: dict[int, str] = field(default_factory=dict)
    #: ``id(page)`` → template fingerprint: from the page pack, the
    #: drift gate or the model build, so no tree is hashed twice.
    fingerprints: dict[int, frozenset] = field(default_factory=dict)
    #: The run's word → stem memo: the quarantine scan fills it and
    #: Phase 2 reuses it (DESIGN.md §10).
    stems: dict[str, str] = field(default_factory=dict)
    #: The site's page pack, read once (``None`` without a store).
    pack: Optional[PagePack] = None

    def key(self, page: Page) -> str:
        """``page``'s content key, hashed at most once per run."""
        key = self.keys.get(id(page))
        if key is None:
            key = self.keys[id(page)] = page_content_key(page.html)
        return key

    def fingerprint(self, page: Page) -> frozenset:
        """``page``'s template fingerprint, hashed at most once per run."""
        fingerprint = self.fingerprints.get(id(page))
        if fingerprint is None:
            fingerprint = page_fingerprint(page.tree)
            self.fingerprints[id(page)] = fingerprint
        return fingerprint


@dataclass
class _ModelHit:
    """A stored site model that answers Phase 1 of an incremental run."""

    model: SiteModel
    #: Content key → stored Phase-1 label (first occurrence wins).
    labels: dict[str, int]
    #: Ids of the pages assigned to the stored centroids (the delta).
    assigned: frozenset[int] = frozenset()


class Thor:
    """The THOR extraction system."""

    def __init__(
        self,
        config: ThorConfig = DEFAULT_CONFIG,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config
        #: The execution plan (in-flight fetches / artifact store /
        #: recovery) every stage shares.
        self.execution = execution = config.execution
        #: Seeded chaos injected into this instance's runs (tests/CI);
        #: ``None`` — the default — injects nothing.
        self.fault_plan = fault_plan
        self._prober = QueryProber(
            config.probing, seed=config.seed, execution=execution
        )
        self._clusterer = PageClusterer(config.clustering, seed=config.seed)
        self._identifier = PageletIdentifier(
            config.subtrees, seed=config.seed, execution=execution
        )
        self._partitioner = ObjectPartitioner(config.subtrees)
        #: Artifact-cache counters folded in at the end of each run.
        self._artifact_stats: dict[str, int] = {}
        #: Resilience ledger, accumulated across this instance's stages.
        self._report = RunReportBuilder()
        #: Per-cluster outcomes of the latest extraction — the raw
        #: material :meth:`persist_model` bundles into the ``models/``
        #: artifact. ``None`` until an extraction completes.
        self._last_fit: Optional[dict] = None

    # -- resilience accounting -------------------------------------------

    def report(self) -> RunReport:
        """The resilience ledger so far (see
        :func:`repro.resilience.report.format_run_report`)."""
        report = self._report.build()
        if self.fault_plan is not None:
            report = dataclass_replace(
                report, faults_injected=dict(self.fault_plan.injected)
            )
        return report

    def record_quarantine(self, records) -> None:
        """Fold externally produced quarantine records (e.g. corrupt
        page-cache lines from :func:`repro.io.cache.load_pages`) into
        this instance's run report."""
        for record in records:
            self._report.quarantine(record)

    # -- entry points ------------------------------------------------------

    def probe(self, source: DeepWebSource) -> ProbeResult:
        """Stage 1: collect sample pages from ``source``."""
        with activate_fault_plan(self.fault_plan), activate_report(self._report):
            return self._probe(source)

    def extract(
        self, pages: Sequence[Page], options: Optional[RunOptions] = None
    ) -> ThorResult:
        """Stage 2: two-phase QA-Pagelet extraction over sampled pages.

        With a configured artifact cache, pages are primed from the
        site's page pack first (clustering signatures injected, lazy
        tree loads redirected to the stored lossless codec), and the
        pack is republished at the end of the run when some page
        missed it — the cache only changes *when* values are computed,
        never what they are.

        ``options`` apply exactly as in :meth:`run`: a ``run_id``
        checkpoints the Phase-1 fit, ``resume`` restores it (skipping
        the K-Means restarts) with a bitwise-identical result, and
        ``incremental`` answers Phase 1 from the stored site model.

        Pages whose parse or signature analysis raises a
        :class:`~repro.errors.ThorError` are quarantined (with a
        structured reason on the run report) and extraction degrades
        to the survivors; when fewer than
        ``ExecutionConfig.min_surviving_fraction`` of the sample
        survives, :class:`~repro.errors.ExtractionError` is raised —
        extracting a template from junk would only produce junk. A
        forwarded cluster whose Phase-2 analysis raises (or times out
        under its watchdog deadline) is likewise quarantined whole, and
        the remaining clusters still produce pagelets.
        """
        return self._drive(options, pages=pages, partition=False)

    def partition(self, result: ThorResult) -> ThorResult:
        """Stage 3: partition every extracted pagelet into QA-Objects.

        A pagelet whose partitioning raises a
        :class:`~repro.errors.ThorError` is quarantined (it keeps its
        place in ``pagelets`` but contributes no partitioned entry)
        rather than aborting the stage.
        """
        with activate_fault_plan(self.fault_plan), activate_report(self._report):
            partitioned = self._partition_stage(result.pagelets)
            return dataclass_replace(
                result, partitioned=partitioned, report=self.report()
            )

    def refresh(
        self, pages: Sequence[Page], options: Optional[RunOptions] = None
    ) -> ThorResult:
        """Stages 2+3 incrementally against the site's stored model.

        The three drift tiers (DESIGN.md §15): unchanged pages replay
        their pagelets and partitions straight from the ``models/``
        artifact; changed/new pages within
        ``IncrementalConfig.drift_threshold`` are assigned to the
        stored Phase-1 clusters with one cosine matmul (no refit) and
        only the clusters they land in re-run Phase 2; drift past the
        threshold — or a model miss/corruption — falls back to the
        ordinary full pipeline. Every tier is accounted on the run
        report (``skipped``/``assigned``/``refit``/``drift_events``/
        ``model_misses``) and the updated model is re-persisted, so
        with no drift the result digest is bitwise identical to a full
        refit. Equivalent to :meth:`extract` + :meth:`partition` with
        ``RunOptions(incremental=True)``.
        """
        options = dataclass_replace(options or RunOptions(), incremental=True)
        return self._drive(options, pages=pages)

    def run(
        self, source: DeepWebSource, options: Optional[RunOptions] = None
    ) -> ThorResult:
        """Probe, extract, and partition in one call.

        With ``options.run_id`` set (and a persistent artifact store
        configured), the run checkpoints each completed stage in a run
        manifest; ``options.resume`` then skips stages the manifest
        marks complete — after a crash, a resumed run re-probes
        nothing, restores the Phase-1 fit from the cluster checkpoint
        instead of re-running the K-Means restarts, and re-derives
        Phase-2 work from the trees of the site's page pack, producing
        a result digest bitwise-identical to an uninterrupted run.
        Resume hits are accounted on the run report.
        ``options.incremental`` re-extracts against the stored site
        model (see :meth:`refresh`).
        """
        return self._drive(options, source=source)

    # -- the stage driver --------------------------------------------------

    def _drive(
        self,
        options: Optional[RunOptions],
        *,
        source: Optional[DeepWebSource] = None,
        pages: Optional[Sequence[Page]] = None,
        partition: bool = True,
    ) -> ThorResult:
        """Probe (when given a source), cluster, identify, partition.

        The one place every stage is called from: checkpoints open
        here, each stage first looks up its stored answer, and the
        finished run is recorded in the manifest, (when Stage 3 ran)
        re-published as the site model for the next incremental run,
        and, last, re-published as the site's page pack when a page
        missed it.
        """
        options = options if options is not None else RunOptions()
        with activate_fault_plan(self.fault_plan), activate_report(self._report):
            checkpoint = self._open_checkpoint(options)
            if source is not None:
                pages = self._probe_stage(source, options, checkpoint)
            self._notify_stage(options, "extract")
            run = _SiteRun(site_identity([page.url for page in pages]))
            self._prime_pages(pages, run)
            hit = self._lookup_model(pages, run) if options.incremental else None
            surviving = self._quarantine_scan(pages, run.stems)
            self._check_survival(len(surviving), len(pages))
            clustering = self._cluster_stage(
                surviving, hit, run, options, checkpoint
            )
            outcomes, replayed = self._identify_stage(clustering, hit, run)
            identifications = tuple(
                outcome["identification"]
                for outcome in outcomes
                if outcome["identification"] is not None
            )
            pagelets = tuple(
                pagelet
                for identification in identifications
                for pagelet in identification.pagelets
            )
            partitioned: tuple[PartitionedPagelet, ...] = ()
            if partition:
                self._notify_stage(options, "partition")
                partitioned = self._partition_stage(pagelets, replayed)
            result = ThorResult(
                pages=tuple(surviving),
                clustering=clustering,
                identifications=identifications,
                pagelets=pagelets,
                partitioned=partitioned,
                report=self.report(),
            )
            self._last_fit = {
                "pages": tuple(surviving),
                "clustering": clustering,
                "outcomes": outcomes,
                "hit": hit,
                "run": run,
            }
            if checkpoint is not None:
                from repro.io.export import result_digest

                store, manifest = checkpoint
                digest = result_digest(result)
                manifest.mark_complete("extract", digest=digest)
                if partition:
                    manifest.mark_complete("partition", digest=digest)
                save_manifest(store, manifest)
            if partition:
                # Feed the next incremental run: every completed run
                # (and every refresh) re-publishes the fitted model.
                self.persist_model(result)
            if run.pack is not None:
                run.pack.publish(surviving, run.key, run.fingerprint)
            self._flush_artifact_stats()
            return result

    def _open_checkpoint(self, options: RunOptions):
        """The ``(store, manifest)`` pair of a checkpointed invocation,
        or ``None`` when ``options`` ask for no checkpointing.

        Raises :class:`~repro.errors.ResumeError` when ``resume=True``
        names no run to resume, or when checkpointing is requested
        without a persistent artifact store.
        """
        if options.run_id is None and not options.resume:
            return None
        if options.run_id is None:
            raise ResumeError(
                "resume=True needs a run_id naming the run to resume"
            )
        store = artifact_store_for(self.execution)
        if store is None:
            raise ResumeError(
                "checkpointed runs need a persistent artifact store: "
                "set ExecutionConfig.cache_dir (or REPRO_CACHE_DIR)"
            )
        manifest = open_manifest(
            store, options.run_id, config_fingerprint(self.config), options.resume
        )
        return store, manifest

    @staticmethod
    def _notify_stage(options: RunOptions, stage: str) -> None:
        """Fire ``options.on_stage`` as a stage starts computing (the
        fleet ledger's state-machine hook); never fired for stages a
        resume skipped."""
        if options.on_stage is not None:
            options.on_stage(stage)

    def _run_stage(self, stage: str, fn):
        """``fn()`` under the stage's watchdog deadline, if any."""
        return run_stage(fn, stage, resolve_stage_timeout(self.execution, stage))

    # -- stage 1 -----------------------------------------------------------

    def _probe(self, source: DeepWebSource) -> ProbeResult:
        """Stage 1 under the probe watchdog and the active fault plan's
        source faults."""
        plan = active_fault_plan()
        if plan is not None and plan.source is not None:
            from repro.probe.faults import FaultInjectingSource

            if not isinstance(source, FaultInjectingSource):
                source = FaultInjectingSource(
                    source, plan.source, seed=plan.seed
                )
        return self._run_stage("probe", lambda: self._prober.probe(source))

    def _probe_stage(
        self, source: DeepWebSource, options: RunOptions, checkpoint
    ) -> list[Page]:
        """Stage 1, unless the resumed run's probe checkpoint has it."""
        if checkpoint is not None:
            store, manifest = checkpoint
            if options.resume and manifest.stage_complete("probe"):
                pages = load_probe_checkpoint(store, options.run_id)
                if pages is not None:
                    self._report.resume_hit("probe")
                    return pages
                # A corrupt/evicted checkpoint is a miss, not an error:
                # fall through to re-probing.
        self._notify_stage(options, "probe")
        pages = list(self._probe(source).pages)
        if checkpoint is not None:
            payload_key = save_probe_checkpoint(store, options.run_id, pages)
            manifest.mark_complete(
                "probe", pages=len(pages), payload_key=payload_key
            )
            save_manifest(store, manifest)
        return pages

    # -- page preparation ----------------------------------------------------

    def _quarantine_scan(
        self, pages: Sequence[Page], stems: dict[str, str]
    ) -> list[Page]:
        """Force each page's parse + signature analysis, quarantining
        the ones that raise; returns the surviving pages in order.

        ``stems`` is the run's stem memo: a site's pages share most of
        their words, so each distinct word is stemmed once per run.
        It lives only as long as the run, unlike a process-wide memo.
        """
        plan = active_fault_plan()
        surviving: list[Page] = []
        for index, page in enumerate(pages):
            unit = page.url or f"page[{index}]"
            try:
                if plan is not None:
                    fault = plan.page_fault(unit)
                    if fault is not None:
                        raise fault
                page.tag_counts()
                page.term_counts(stems)
                page.max_fanout()
            except ThorError as exc:
                self._report.quarantine(
                    quarantine_record(STAGE_SIGNATURE, unit, exc)
                )
                continue
            surviving.append(page)
        self._report.pages_scanned(len(pages), len(surviving))
        return surviving

    def _check_survival(self, surviving: int, total: int) -> None:
        minimum = self.execution.min_surviving_fraction
        if surviving and surviving >= minimum * total:
            return
        raise ExtractionError(
            f"only {surviving}/{total} pages survived the quarantine scan "
            f"(min_surviving_fraction={minimum}); refusing to extract a "
            "template from what is mostly junk"
        )

    def _prime_pages(self, pages: Sequence[Page], run: _SiteRun) -> None:
        """Warm pages from the site's page pack, read once.

        Each page the pack holds gets its stored signatures injected,
        a lazy tree loader onto the stored lossless codec, and its
        fingerprint recorded in ``run``, so the quarantine scan, Phase
        1 and the site model compute none of them. Without a store,
        nothing is read and no page is hashed.
        """
        store = artifact_store_for(self.execution)
        if store is None:
            return
        run.pack = PagePack(store, run.site)
        for page in pages:
            fingerprint = run.pack.prime(page, run.key(page))
            if fingerprint is not None:
                run.fingerprints[id(page)] = fingerprint

    def _flush_artifact_stats(self) -> None:
        """Fold this process's store counters into :meth:`artifact_stats`
        and the store's persistent ledger, after the run's last publish
        (the site model and the manifest come after Stage 3)."""
        store = artifact_store_for(self.execution)
        if store is None:
            return
        for field, value in store.stats().items():
            self._artifact_stats[field] = self._artifact_stats.get(field, 0) + value
        store.flush_stats()

    def artifact_stats(self) -> Optional[dict]:
        """This process's artifact-cache counters (``None`` if off).

        Counts cover every publish of the run: a site run computes
        entirely in this process and starts no worker.
        """
        store = artifact_store_for(self.execution)
        if store is None:
            return None
        totals = dict(self._artifact_stats)
        for field, value in store.stats().items():
            totals[field] = totals.get(field, 0) + value
        return totals

    # -- stage 2, phase 1 ----------------------------------------------------

    def _cluster_stage(
        self,
        surviving: list[Page],
        hit: Optional[_ModelHit],
        run: _SiteRun,
        options: RunOptions,
        checkpoint,
    ) -> PageClusteringResult:
        """Phase 1: assigned from the site model (incremental), restored
        from the cluster checkpoint (resume), or fitted."""
        if hit is not None:
            return self._refresh_assign(surviving, hit, run)
        if checkpoint is not None:
            store, manifest = checkpoint
            if options.resume and manifest.stage_complete("cluster"):
                clustering = load_cluster_checkpoint(
                    store, options.run_id, surviving
                )
                if clustering is not None:
                    self._report.resume_hit("cluster")
                    return clustering
                # A corrupt, evicted, or size-mismatched checkpoint is
                # a miss, not an error: fall through to refitting.
        clustering = self._run_stage(
            "cluster", lambda: self._clusterer.fit(surviving)
        )
        if checkpoint is not None:
            payload_key = save_cluster_checkpoint(
                store, options.run_id, clustering
            )
            manifest.mark_complete(
                "cluster", pages=len(surviving), payload_key=payload_key
            )
            save_manifest(store, manifest)
        return clustering

    def _lookup_model(
        self, pages: Sequence[Page], run: _SiteRun
    ) -> Optional[_ModelHit]:
        """The incremental lookup, made before the quarantine scan:
        the site model, when it may answer Phase 1 for ``pages``.

        ``None`` — after counting a model miss (no store, an
        unsupported configuration, a torn bundle, or simply a first
        run) or a drift event (a changed page drifted past
        ``IncrementalConfig.drift_threshold``) — sends the run down the
        ordinary path, counted as a refit of every page.
        """
        cfg = self.config.incremental
        hit = None
        if cfg.mode != "refit":
            store = artifact_store_for(self.execution)
            model = None
            if (
                store is not None
                and self.config.clustering.configuration
                in _INCREMENTAL_SIGNATURES
            ):
                model = load_model(
                    store, run.site, config_fingerprint(self.config)
                )
            if model is None:
                self._report.incremental_event("model_misses")
            else:
                labels: dict[str, int] = {}
                for key, label in zip(model.page_keys, model.labels):
                    labels.setdefault(key, label)
                hit = _ModelHit(model, labels)
        if hit is not None and cfg.mode == "auto":
            changed = [p for p in pages if run.key(p) not in hit.labels]
            if changed and (
                self._max_drift(changed, hit.model, run) > cfg.drift_threshold
            ):
                self._report.incremental_event("drift_events")
                hit = None
        if hit is None:
            self._report.incremental_event("refit", len(pages))
        return hit

    def _max_drift(
        self, pages: Sequence[Page], model: SiteModel, run: _SiteRun
    ) -> float:
        """Worst per-page fingerprint drift vs the stored clusters.

        A page whose parse raises contributes nothing here — the
        quarantine scan, not the drift gate, decides its fate.
        Fingerprints come from and go to ``run``'s map, so the model
        republish does not hash the same trees twice.
        """
        drift = 0.0
        for page in pages:
            try:
                fingerprint = run.fingerprint(page)
            except ThorError:
                continue
            drift = max(
                drift, fingerprint_drift(fingerprint, model.fingerprints)
            )
        return drift

    def _refresh_assign(
        self, pages: Sequence[Page], hit: _ModelHit, run: _SiteRun
    ) -> PageClusteringResult:
        """Phase 1 from the site model: unchanged pages keep their
        stored label and changed pages are assigned to the stored
        centroids with one cosine matmul (no refit)."""
        model = hit.model
        labels = {id(page): hit.labels.get(run.key(page)) for page in pages}
        fresh = [page for page in pages if labels[id(page)] is None]
        if fresh:
            from repro.vsm.matrix import encode_tfidf

            signature = _INCREMENTAL_SIGNATURES[
                self.config.clustering.configuration
            ]
            vocabulary = {
                feature: column
                for column, feature in enumerate(model.vocabulary)
            }
            rows = encode_tfidf(
                [signature(page) for page in fresh], vocabulary, model.idf
            )
            for page, label in zip(fresh, assign_to_centroids(rows, model.centroids)):
                labels[id(page)] = label
        self._report.incremental_event("skipped", len(pages) - len(fresh))
        self._report.incremental_event("assigned", len(fresh))
        hit.assigned = frozenset(id(page) for page in fresh)
        clustering = Clustering.from_labels(
            (labels[id(page)] for page in pages), model.k
        )
        scores = score_clusters(
            pages, clustering, self.config.clustering.ranking_weights
        )
        return PageClusteringResult(tuple(pages), clustering, tuple(scores))

    # -- stage 2, phase 2 ----------------------------------------------------

    def _identify_stage(
        self,
        clustering: PageClusteringResult,
        hit: Optional[_ModelHit],
        run: _SiteRun,
    ) -> tuple[list[dict], dict]:
        """Phase 2 over the top-m clusters, one outcome per cluster.

        A cluster whose membership is byte-identical to a stored
        cluster of the site model replays that cluster's Phase-2/3
        outcome; every other cluster (new/changed members, ranking
        churn, stale paths) runs Phase 2 live. Returns the outcomes
        and the replayed pagelets' stored partitions, by pagelet id.
        """
        records = {}
        if hit is not None:
            records = {record.cluster: record for record in hit.model.clusters}
        outcomes: list[dict] = []
        replayed: dict = {}
        top_ids = clustering.top_cluster_ids(
            self.config.clustering.top_m,
            min_pages=self.config.clustering.min_cluster_pages,
        )
        for cluster_index, cluster_id in enumerate(top_ids):
            members = clustering.cluster_pages(cluster_id)
            if not members:
                continue
            outcome = {
                "cluster": cluster_id,
                "members": members,
                "identification": None,
                "quarantined": None,
            }
            outcomes.append(outcome)
            record = records.get(cluster_id)
            try:
                replay = None
                if record is not None and record.page_keys == tuple(
                    run.key(page) for page in members
                ):
                    replay = self._replay_cluster(record, members)
                if replay is None:
                    outcome["identification"] = self._run_stage(
                        "identify",
                        lambda pages=members: self._identifier.identify(
                            pages, stems=run.stems
                        ),
                    )
                else:
                    outcome["identification"], parts = replay
                    replayed.update(parts)
            except ThorError as exc:
                # Degrade: this cluster contributes nothing, the rest
                # of the run proceeds. (StageTimeoutError lands here
                # too — the watchdog already logged the timeout.)
                self._report.quarantine(
                    quarantine_record(
                        STAGE_IDENTIFY,
                        f"cluster[{cluster_index}] ({len(members)} pages)",
                        exc,
                    )
                )
                outcome["quarantined"] = str(exc)
        return outcomes, replayed

    def _replay_cluster(self, record: ClusterRecord, members: Sequence[Page]):
        """Rebuild one stored cluster's Phase-2/3 outcome, or ``None``.

        Returns the identification and each replayed pagelet's stored
        partition (``None`` when it was never partitioned), keyed by
        pagelet id. A cluster quarantined at fit time raises its stored
        reason as :class:`~repro.errors.ExtractionError` — identical
        inputs would fail identically, so the failing analysis is not
        re-run. A record whose stored paths no longer resolve (a stale
        bundle) returns ``None`` and the caller re-runs Phase 2 live.
        """
        if record.quarantined is not None:
            raise ExtractionError(record.quarantined)
        pagelets: list[QAPagelet] = []
        parts: dict = {}
        try:
            for entry in record.pagelets:
                page = members[entry.page_index]
                pagelet = QAPagelet(
                    page=page,
                    path=entry.path,
                    node=resolve_path(page.tree, entry.path),
                    score=entry.score,
                    rank=entry.rank,
                    contained_dynamic_paths=entry.dynamic_paths,
                    contained_static_paths=entry.static_paths,
                )
                pagelets.append(pagelet)
                parts[id(pagelet)] = None
                if entry.partition is not None:
                    separator, object_paths = entry.partition
                    parts[id(pagelet)] = PartitionedPagelet(
                        pagelet=pagelet,
                        objects=tuple(
                            QAObject(
                                path=path, node=resolve_path(page.tree, path)
                            )
                            for path in object_paths
                        ),
                        separator_parent=separator,
                    )
        except (PathResolutionError, PathSyntaxError, IndexError, ThorError):
            return None
        identification = IdentificationResult(
            tuple(members), tuple(pagelets), (), ()
        )
        return identification, parts

    # -- stage 3 -----------------------------------------------------------

    def _partition_stage(
        self, pagelets: Sequence[QAPagelet], replayed: Optional[dict] = None
    ) -> tuple[PartitionedPagelet, ...]:
        """Stage 3 over ``pagelets`` in order; a pagelet replayed from
        the site model takes its stored partition instead."""
        partitioned = []
        for pagelet in pagelets:
            if replayed and id(pagelet) in replayed:
                entry = replayed[id(pagelet)]
            else:
                entry = self._partition_one(pagelet)
            if entry is not None:
                partitioned.append(entry)
        return tuple(partitioned)

    def _partition_one(self, pagelet: QAPagelet) -> Optional[PartitionedPagelet]:
        """Partition one pagelet; ``None`` (after quarantining) on a
        :class:`~repro.errors.ThorError`."""
        try:
            return self._run_stage(
                "partition", lambda: self._partitioner.partition(pagelet)
            )
        except ThorError as exc:
            self._report.quarantine(
                quarantine_record(STAGE_PARTITION, pagelet.path, exc)
            )
            return None

    # -- the site model ------------------------------------------------------

    def persist_model(self, result: ThorResult) -> bool:
        """Bundle the latest fit into the ``models/`` slot; True if saved.

        Requires a configured artifact store and a clustering
        configuration the assign kernel can reconstruct
        (``_INCREMENTAL_SIGNATURES``); silently skips otherwise. Model
        persistence is strictly additive — a failure to save can never
        fail the run that produced ``result``.
        """
        store = artifact_store_for(self.execution)
        fit = self._last_fit
        if (
            store is None
            or fit is None
            or self.config.clustering.configuration not in _INCREMENTAL_SIGNATURES
        ):
            return False
        try:
            save_model(store, self._build_model(fit, result))
        except (ThorError, ValueError, TypeError, KeyError, OSError):
            return False
        return True

    def _build_model(self, fit: dict, result: ThorResult) -> SiteModel:
        from repro.vsm.matrix import centroid_matrix, encode_tfidf, tfidf_statistics

        pages: tuple[Page, ...] = fit["pages"]
        clustering_result: PageClusteringResult = fit["clustering"]
        k = clustering_result.clustering.k
        labels = clustering_result.clustering.labels
        hit: Optional[_ModelHit] = fit["hit"]
        run: _SiteRun = fit["run"]
        if hit is not None:
            # Assign-tier refresh: the stored geometry is still the
            # fit of record — carry it forward verbatim and extend the
            # per-cluster fingerprint unions with just the fresh pages
            # (unchanged pages contributed theirs at fit time, so the
            # unions are additive until the next refit rebuilds them).
            vocabulary = hit.model.vocabulary
            idf = hit.model.idf
            centroids = hit.model.centroids
            unions = [set(union) for union in hit.model.fingerprints]
            for page, label in zip(pages, labels):
                if id(page) in hit.assigned:
                    unions[label] |= run.fingerprint(page)
        else:
            signature = _INCREMENTAL_SIGNATURES[
                self.config.clustering.configuration
            ]
            signatures = [signature(page) for page in pages]
            vocabulary, idf = tfidf_statistics(signatures)
            centroids, _counts = centroid_matrix(
                encode_tfidf(signatures, vocabulary, idf), list(labels), k
            )
            unions = [set() for _ in range(k)]
            for page, label in zip(pages, labels):
                unions[label] |= run.fingerprint(page)
        partition_map = {
            id(part.pagelet): part for part in result.partitioned
        }
        cluster_records = []
        for outcome in fit["outcomes"]:
            members: Sequence[Page] = outcome["members"]
            member_index = {id(page): i for i, page in enumerate(members)}
            pagelet_records = []
            identification = outcome["identification"]
            if identification is not None:
                for pagelet in identification.pagelets:
                    part = partition_map.get(id(pagelet))
                    pagelet_records.append(
                        PageletRecord(
                            page_index=member_index[id(pagelet.page)],
                            path=pagelet.path,
                            score=pagelet.score,
                            rank=pagelet.rank,
                            dynamic_paths=tuple(pagelet.contained_dynamic_paths),
                            static_paths=tuple(pagelet.contained_static_paths),
                            partition=(
                                None
                                if part is None
                                else (
                                    part.separator_parent,
                                    tuple(obj.path for obj in part.objects),
                                )
                            ),
                        )
                    )
            cluster_records.append(
                ClusterRecord(
                    cluster=outcome["cluster"],
                    page_keys=tuple(run.key(page) for page in members),
                    quarantined=outcome["quarantined"],
                    pagelets=tuple(pagelet_records),
                )
            )
        return SiteModel(
            site=run.site,
            config_fingerprint=config_fingerprint(self.config),
            k=k,
            page_keys=tuple(run.key(page) for page in pages),
            labels=tuple(labels),
            scores=tuple(
                {
                    "cluster": score.cluster,
                    "size": score.size,
                    "combined_score": score.combined,
                    "avg_distinct_terms": score.avg_distinct_terms,
                    "avg_fanout": score.avg_fanout,
                    "avg_page_size": score.avg_page_size,
                }
                for score in clustering_result.scores
            ),
            vocabulary=tuple(vocabulary),
            idf=idf,
            centroids=centroids,
            fingerprints=tuple(frozenset(union) for union in unions),
            clusters=tuple(cluster_records),
        )
