"""The persisted fitted-model artifact (``models/`` kind).

After a full run, everything a later incremental run needs to avoid a
refit is bundled into one npz artifact under the ``models/`` kind,
keyed by :func:`repro.artifacts.keys.model_key` (a named slot per
``(site, config fingerprint)``, last-writer-wins):

- the fitted tf-idf space parameters (``vocabulary`` column order +
  ``idf`` vector) and the Phase-1 cluster ``centroids`` — enough to
  assign a new page with one cosine matmul,
- the surviving pages' content keys (``sha256(html)``) and labels —
  the unchanged-page replay index,
- per-cluster template fingerprints (uint64 tag-path hash unions,
  :mod:`repro.incremental.fingerprints`) — the drift gate's reference,
- per-forwarded-cluster Phase-2 outcomes: ordered member keys, the
  quarantine reason if the cluster was quarantined, and otherwise each
  pagelet's path/score/rank/contained-paths plus its Stage-3 partition
  (separator parent + object paths) — the pagelet replay records.

Loading is defensive end to end: a torn file is a counted store miss
(:meth:`ArtifactStore.get_arrays` returns ``None``), and a bundle that
loads but fails semantic validation (wrong version, mismatched site or
config, inconsistent shapes) also returns ``None`` — the caller treats
every ``None`` as a model miss and falls back to a full refit, never
an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence
from urllib.parse import urlsplit

from repro.artifacts.keys import MODEL_VERSION, model_key, sha256_hex
from repro.artifacts.store import KIND_MODELS, ArtifactStore


@dataclass(frozen=True)
class PageletRecord:
    """One stored pagelet of a forwarded cluster, ready to replay.

    ``page_index`` indexes the owning cluster's ordered member-key
    list rather than naming a content key directly: two members with
    byte-identical HTML are distinct pages with distinct pagelets.
    """

    page_index: int
    path: str
    score: float
    rank: int
    dynamic_paths: tuple[str, ...] = ()
    static_paths: tuple[str, ...] = ()
    #: ``(separator_parent_or_None, object_paths)`` when Stage 3 ran,
    #: ``None`` when the pagelet was never partitioned.
    partition: Optional[tuple[Optional[str], tuple[str, ...]]] = None


@dataclass(frozen=True)
class ClusterRecord:
    """Phase-2 outcome of one cluster forwarded by cluster ranking."""

    cluster: int
    #: Content keys of the member pages, in member order.
    page_keys: tuple[str, ...]
    #: Quarantine reason when Phase 2 failed for this cluster at fit
    #: time (its pages produced no pagelets), else ``None``.
    quarantined: Optional[str] = None
    pagelets: tuple[PageletRecord, ...] = ()


@dataclass(frozen=True)
class SiteModel:
    """The complete fitted state of one (site, config) pair."""

    site: str
    config_fingerprint: str
    k: int
    #: Content keys of the surviving pages, in fit order.
    page_keys: tuple[str, ...]
    #: Phase-1 labels aligned with ``page_keys``.
    labels: tuple[int, ...]
    #: Cluster ranking at fit time (``ClusterScore`` dicts, best first).
    scores: tuple[dict, ...]
    #: tf-idf feature names in column order.
    vocabulary: tuple[str, ...]
    #: idf vector, ``(len(vocabulary),)`` float64.
    idf: object = field(repr=False)
    #: Phase-1 centroids, ``(k, len(vocabulary))`` float64.
    centroids: object = field(repr=False)
    #: Per-cluster template fingerprints (tag-path hash unions), one
    #: frozenset per label ``0..k-1`` (empty clusters get empty sets).
    fingerprints: tuple[frozenset[int], ...] = ()
    #: Phase-2 outcomes of the forwarded (top-ranked) clusters.
    clusters: tuple[ClusterRecord, ...] = ()

    def label_of(self, page_key: str) -> Optional[int]:
        """Stored label of a content key (first match), else ``None``."""
        try:
            return self.labels[self.page_keys.index(page_key)]
        except ValueError:
            return None


def page_content_key(html: str) -> str:
    """The unchanged-page identity: SHA-256 of the raw HTML."""
    return sha256_hex(html)


def site_identity(urls: Sequence[str]) -> str:
    """A stable site name for the model slot.

    The netloc of the first page URL when one parses (every page of a
    probed site shares it), else the hash of the first URL, else
    ``"anonymous"`` — a corpus with no URLs at all still gets exactly
    one slot.
    """
    for url in urls:
        if not url:
            continue
        netloc = urlsplit(url).netloc
        return netloc if netloc else sha256_hex(url)
    return "anonymous"


def save_model(store: ArtifactStore, model: SiteModel) -> None:
    """Publish ``model`` into its named slot (last-writer-wins)."""
    import numpy as np

    fp_values: list[int] = []
    fp_offsets = [0]
    for fingerprint in model.fingerprints:
        fp_values.extend(sorted(fingerprint))
        fp_offsets.append(len(fp_values))
    meta = {
        "version": MODEL_VERSION,
        "site": model.site,
        "config": model.config_fingerprint,
        "k": model.k,
        "page_keys": list(model.page_keys),
        "labels": list(model.labels),
        "scores": list(model.scores),
        "vocabulary": list(model.vocabulary),
        "clusters": [
            {
                "cluster": record.cluster,
                "page_keys": list(record.page_keys),
                "quarantined": record.quarantined,
                "pagelets": [
                    {
                        "page_index": pagelet.page_index,
                        "path": pagelet.path,
                        "score": pagelet.score,
                        "rank": pagelet.rank,
                        "dynamic": list(pagelet.dynamic_paths),
                        "static": list(pagelet.static_paths),
                        "partition": (
                            None
                            if pagelet.partition is None
                            else {
                                "separator": pagelet.partition[0],
                                "objects": list(pagelet.partition[1]),
                            }
                        ),
                    }
                    for pagelet in record.pagelets
                ],
            }
            for record in model.clusters
        ],
    }
    arrays = {
        "centroids": np.asarray(model.centroids, dtype=np.float64),
        "idf": np.asarray(model.idf, dtype=np.float64),
        "fp_values": np.asarray(fp_values, dtype=np.uint64),
        "fp_offsets": np.asarray(fp_offsets, dtype=np.int64),
    }
    store.put_arrays(
        KIND_MODELS,
        model_key(model.site, model.config_fingerprint),
        arrays,
        meta=meta,
    )


def load_model(
    store: ArtifactStore, site: str, config_fingerprint: str
) -> Optional[SiteModel]:
    """Load and validate the model slot; any defect returns ``None``."""
    bundle = store.get_arrays(KIND_MODELS, model_key(site, config_fingerprint))
    if bundle is None:
        return None
    try:
        return _decode(bundle, site, config_fingerprint)
    except (KeyError, TypeError, ValueError, IndexError):
        return None


def _decode(bundle: dict, site: str, config_fingerprint: str) -> SiteModel:
    meta = bundle["meta"]
    if meta["version"] != MODEL_VERSION:
        raise ValueError("model version mismatch")
    if meta["site"] != site or meta["config"] != config_fingerprint:
        raise ValueError("model slot served a foreign model")
    k = int(meta["k"])
    page_keys = tuple(str(key) for key in meta["page_keys"])
    labels = tuple(int(label) for label in meta["labels"])
    if len(labels) != len(page_keys):
        raise ValueError("labels/page_keys length mismatch")
    if any(not 0 <= label < k for label in labels):
        raise ValueError("label out of range")
    vocabulary = tuple(str(feature) for feature in meta["vocabulary"])
    centroids = bundle["centroids"]
    idf = bundle["idf"]
    if centroids.shape != (k, len(vocabulary)):
        raise ValueError("centroid shape mismatch")
    if idf.shape != (len(vocabulary),):
        raise ValueError("idf shape mismatch")
    offsets = [int(o) for o in bundle["fp_offsets"]]
    values = bundle["fp_values"]
    if len(offsets) != k + 1 or offsets != sorted(offsets):
        raise ValueError("fingerprint offsets malformed")
    if offsets and offsets[-1] != len(values):
        raise ValueError("fingerprint values truncated")
    fingerprints = tuple(
        frozenset(int(v) for v in values[offsets[i] : offsets[i + 1]])
        for i in range(k)
    )
    clusters = []
    for record in meta["clusters"]:
        member_keys = tuple(str(key) for key in record["page_keys"])
        pagelets = []
        for entry in record["pagelets"]:
            index = int(entry["page_index"])
            if not 0 <= index < len(member_keys):
                raise ValueError("pagelet page_index out of range")
            partition = entry["partition"]
            pagelets.append(
                PageletRecord(
                    page_index=index,
                    path=str(entry["path"]),
                    score=float(entry["score"]),
                    rank=int(entry["rank"]),
                    dynamic_paths=tuple(str(p) for p in entry["dynamic"]),
                    static_paths=tuple(str(p) for p in entry["static"]),
                    partition=(
                        None
                        if partition is None
                        else (
                            partition["separator"],
                            tuple(str(p) for p in partition["objects"]),
                        )
                    ),
                )
            )
        quarantined = record["quarantined"]
        clusters.append(
            ClusterRecord(
                cluster=int(record["cluster"]),
                page_keys=member_keys,
                quarantined=None if quarantined is None else str(quarantined),
                pagelets=tuple(pagelets),
            )
        )
    scores = tuple(dict(score) for score in meta["scores"])
    return SiteModel(
        site=site,
        config_fingerprint=config_fingerprint,
        k=k,
        page_keys=page_keys,
        labels=labels,
        scores=scores,
        vocabulary=vocabulary,
        idf=idf,
        centroids=centroids,
        fingerprints=fingerprints,
        clusters=tuple(clusters),
    )


__all__ = [
    "ClusterRecord",
    "PageletRecord",
    "SiteModel",
    "load_model",
    "page_content_key",
    "save_model",
    "site_identity",
]
