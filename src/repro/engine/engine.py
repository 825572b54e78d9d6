"""The deep-web search engine: register sources, search the answers.

``register`` runs the full THOR pipeline against one deep-web source —
probe its form, cluster the answer pages, extract QA-Pagelets,
partition them into QA-Objects — and indexes every object.
``search`` then answers fine-grained content queries over everything
the engine has extracted; ``search_sites`` answers the paper's
site-level queries ("list all sites with matches for BLAST") by
aggregating object hits per source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import DEFAULT_CONFIG, RunOptions, ThorConfig
from repro.core.probing import DeepWebSource
from repro.core.thor import Thor, ThorResult
from repro.engine.documents import ObjectDocument
from repro.engine.index import InvertedIndex, SearchHit
from repro.errors import ThorError
from repro.resilience.faults import FaultPlan


@dataclass(frozen=True)
class SiteSummary:
    """Per-source registration summary."""

    site: str
    pages_probed: int
    pagelets_extracted: int
    objects_indexed: int
    #: Incremental re-extraction accounting for this registration:
    #: pages replayed unchanged from the stored site model, pages
    #: assigned to stored clusters without a refit, and pages that
    #: went through a full refit (the whole sample, on a first
    #: registration or a drift event).
    pages_skipped: int = 0
    pages_assigned: int = 0
    pages_refit: int = 0


@dataclass(frozen=True)
class SiteHit:
    """One source ranked by aggregate relevance to a query."""

    site: str
    score: float
    matching_objects: int
    best: Optional[SearchHit] = field(default=None, repr=False)


class DeepWebSearchEngine:
    """Probe, extract, index, retrieve.

    Every registration runs under ``fault_plan`` when one is given: the
    seeded chaos plan :class:`~repro.core.thor.Thor` takes.
    """

    def __init__(
        self,
        config: ThorConfig = DEFAULT_CONFIG,
        deduplicate: bool = True,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self._thor = Thor(config, fault_plan=fault_plan)
        self._index = InvertedIndex()
        self._summaries: dict[str, SiteSummary] = {}
        self._next_doc_id = 0
        #: Skip objects whose text was already indexed for the site —
        #: the same record surfaces under many probe queries.
        self._deduplicate = deduplicate
        self._seen: set[tuple[str, str]] = set()

    def __len__(self) -> int:
        return len(self._index)

    @property
    def sites(self) -> list[str]:
        """Registered source hosts."""
        return sorted(self._summaries)

    # -- ingestion ---------------------------------------------------------

    def register(
        self, source: DeepWebSource, site_name: Optional[str] = None
    ) -> SiteSummary:
        """Run THOR against ``source`` and index its QA-Objects.

        ``site_name`` defaults to the host found in the sampled pages'
        URLs (or ``"source-N"`` when URLs are empty).

        Registration always goes through the incremental refresh path:
        when the engine's config has an artifact cache, re-registering
        a source diffs its pages against the stored site model and
        re-extracts only the delta (a first registration is a model
        miss and refits in full — same results, full cost). The
        returned summary's ``pages_skipped`` / ``pages_assigned`` /
        ``pages_refit`` counters say which tier each page took.
        """
        before = self._thor.report().incremental
        result = self._thor.run(source, options=RunOptions(incremental=True))
        after = self._thor.report().incremental
        delta = {
            kind: after.get(kind, 0) - before.get(kind, 0) for kind in after
        }
        name = site_name or self._infer_site_name(result)
        objects = 0
        for part in result.partitioned:
            page = part.pagelet.page
            for obj in part.objects:
                text = obj.text()
                if not text.strip():
                    continue
                if self._deduplicate:
                    key = (name, " ".join(text.split()))
                    if key in self._seen:
                        continue
                    self._seen.add(key)
                self._index.add(
                    ObjectDocument.build(
                        doc_id=self._next_doc_id,
                        site=name,
                        probe_query=page.query,
                        path=obj.path,
                        page_url=page.url,
                        text=text,
                    )
                )
                self._next_doc_id += 1
                objects += 1
        self._index.invalidate_norms()
        summary = SiteSummary(
            site=name,
            pages_probed=len(result.pages),
            pagelets_extracted=len(result.pagelets),
            objects_indexed=objects,
            pages_skipped=delta.get("skipped", 0),
            pages_assigned=delta.get("assigned", 0),
            pages_refit=delta.get("refit", 0),
        )
        self._summaries[name] = summary
        return summary

    def _infer_site_name(self, result: ThorResult) -> str:
        for page in result.pages:
            url = page.url
            if url.startswith("http://") or url.startswith("https://"):
                host = url.split("//", 1)[1].split("/", 1)[0]
                if host:
                    return host
        return f"source-{len(self._summaries)}"

    def summary(self, site: str) -> SiteSummary:
        """Registration summary for one source."""
        try:
            return self._summaries[site]
        except KeyError:
            raise ThorError(f"unknown site {site!r}; registered: {self.sites}")

    # -- retrieval -----------------------------------------------------------

    def search(
        self, query: str, top_k: int = 10, site: Optional[str] = None
    ) -> list[SearchHit]:
        """Fine-grained content search over extracted QA-Objects.

        ``site`` restricts results to one source.
        """
        hits = self._index.search(query, top_k=top_k * 5 if site else top_k)
        if site is not None:
            hits = [h for h in hits if h.document.site == site]
        return hits[:top_k]

    def search_sites(self, query: str, top_k: int = 5) -> list[SiteHit]:
        """Site-level search: sources ranked by aggregate relevance."""
        hits = self._index.search(query, top_k=max(50, top_k * 20))
        by_site: dict[str, list[SearchHit]] = {}
        for hit in hits:
            by_site.setdefault(hit.document.site, []).append(hit)
        ranked = [
            SiteHit(
                site=site,
                score=sum(h.score for h in site_hits),
                matching_objects=len(site_hits),
                best=site_hits[0],
            )
            for site, site_hits in by_site.items()
        ]
        ranked.sort(key=lambda s: -s.score)
        return ranked[:top_k]
