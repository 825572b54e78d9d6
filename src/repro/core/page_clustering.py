"""Phase 1: page clustering (Section 3.1).

Groups a site's sampled pages into structurally similar clusters using
the configured page representation (THOR: TFIDF-weighted tag-tree
signatures + cosine + Simple K-Means with restarts), then ranks the
clusters by their likelihood of containing QA-Pagelets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.assignments import Clustering
from repro.config import ClusteringConfig
from repro.core.cluster_ranking import ClusterScore, score_clusters
from repro.core.page import Page
from repro.errors import ExtractionError
from repro.signatures.registry import get_configuration


@dataclass(frozen=True)
class PageClusteringResult:
    """Clustering plus ranking for one site's page sample."""

    pages: tuple[Page, ...]
    clustering: Clustering
    #: Per-cluster ranking scores, best first.
    scores: tuple[ClusterScore, ...]

    @property
    def ranked_clusters(self) -> list[int]:
        """Cluster labels, most QA-Pagelet-likely first."""
        return [s.cluster for s in self.scores]

    def cluster_pages(self, cluster: int) -> list[Page]:
        """Pages of one cluster."""
        return self.clustering.select(self.pages, cluster)

    def top_cluster_ids(self, m: int, min_pages: int = 1) -> list[int]:
        """Labels of the ``m`` best-ranked clusters.

        Clusters with fewer than ``min_pages`` pages are skipped and
        the next ranked cluster takes the slot; when nothing meets the
        floor, the unfiltered top-m is returned (degrading gracefully
        on tiny samples).
        """
        qualified = [
            c
            for c in self.ranked_clusters
            if len(self.clustering.members(c)) >= min_pages
        ]
        if not qualified:
            return self.ranked_clusters[:m]
        return qualified[:m]

    def top_clusters(self, m: int, min_pages: int = 1) -> list[list[Page]]:
        """The page lists of the ``m`` best-ranked clusters (see
        :meth:`top_cluster_ids` for the selection rule)."""
        return [
            self.cluster_pages(c) for c in self.top_cluster_ids(m, min_pages)
        ]


class PageClusterer:
    """Phase-1 driver."""

    def __init__(
        self,
        config: ClusteringConfig = ClusteringConfig(),
        seed: Optional[int] = None,
    ) -> None:
        self.config = config
        self.seed = seed

    def fit(self, pages: Sequence[Page]) -> PageClusteringResult:
        """Cluster and rank ``pages``.

        Raises :class:`ExtractionError` on an empty sample — Phase 2
        needs at least one page cluster to analyze.
        """
        if not pages:
            raise ExtractionError("cannot cluster an empty page sample")
        configuration = get_configuration(self.config.configuration)
        clustering = configuration(
            pages,
            self.config.k,
            restarts=self.config.restarts,
            seed=self.seed,
        )
        scores = score_clusters(pages, clustering, self.config.ranking_weights)
        return PageClusteringResult(tuple(pages), clustering, tuple(scores))
