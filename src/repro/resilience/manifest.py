"""Checkpointed runs: the persistent run manifest.

A run manifest records, per named run, which pipeline stages have
completed and where their artifacts live, so a crashed run can be
resumed (``repro run --resume <run-id>`` /
``Thor.run(source, run_id=..., resume=True)``) without redoing
finished work — and, because every checkpoint stores exactly what the
live stage produced, with a result digest bitwise-identical to an
uninterrupted run.

Manifests live in the same artifact store as every other
intermediate (kind ``runs``), published atomically, so a crash
*during* checkpointing leaves either the previous manifest or the new
one — never a torn state. The probe checkpoint stores the full page
records (HTML + labels, the same JSONL schema as
:mod:`repro.io.cache`); the cluster checkpoint stores the Phase-1 fit
(labels, k, ranking scores) so a resumed run skips the K-Means
restarts too, not just the probe; page analysis needs no per-run
checkpoint because the site's page pack already serves it warm on
resume.

A manifest carries the *configuration fingerprint* of the run that
wrote it. Resuming under a different seed or stage configuration would
splice incompatible half-runs together, so a fingerprint mismatch
raises :class:`~repro.errors.ResumeError` instead of silently
producing a franken-result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.artifacts.keys import sha256_hex
from repro.errors import ResumeError

#: Artifact-store kind for run manifests and stage checkpoints.
KIND_RUNS = "runs"

#: Bump when the manifest or checkpoint layout changes.
MANIFEST_VERSION = 1


def manifest_key(run_id: str) -> str:
    """Store key of the manifest for ``run_id``."""
    return sha256_hex(f"manifest:v{MANIFEST_VERSION}:{run_id}")


def checkpoint_key(run_id: str, stage: str) -> str:
    """Store key of one stage's checkpoint payload for ``run_id``."""
    return sha256_hex(f"checkpoint:v{MANIFEST_VERSION}:{run_id}:{stage}")


def config_fingerprint(config) -> str:
    """A digest of everything that determines a run's results.

    Execution concerns (worker count, artifact store, recovery) are
    deliberately excluded: the parallel == serial and warm == cold
    invariants mean a run may be resumed with a different execution
    plan and still digest identically.
    """
    return sha256_hex(
        repr((config.seed, config.probing, config.clustering, config.subtrees))
    )


@dataclass
class RunManifest:
    """Completed-stage ledger for one named run."""

    run_id: str
    fingerprint: str
    #: Stage name -> completion info ({"digest": ..., "pages": N, ...}).
    stages: dict = field(default_factory=dict)

    def stage_complete(self, stage: str) -> bool:
        return stage in self.stages

    def stage_info(self, stage: str) -> dict:
        return dict(self.stages.get(stage, {}))

    def mark_complete(self, stage: str, **info) -> None:
        self.stages[stage] = dict(info)


def load_manifest(store, run_id: str) -> Optional[RunManifest]:
    """Load the manifest for ``run_id``, or ``None`` when absent or
    corrupt (a corrupt manifest means the run restarts from scratch —
    the store's corrupt-file-as-miss rule, applied to run state)."""
    payload = store.get_json(KIND_RUNS, manifest_key(run_id))
    if not isinstance(payload, dict):
        return None
    run_id_stored = payload.get("run_id")
    fingerprint = payload.get("fingerprint")
    stages = payload.get("stages")
    if (
        run_id_stored != run_id
        or not isinstance(fingerprint, str)
        or not isinstance(stages, dict)
        or not all(isinstance(info, dict) for info in stages.values())
    ):
        return None
    return RunManifest(run_id=run_id, fingerprint=fingerprint, stages=dict(stages))


def save_manifest(store, manifest: RunManifest) -> None:
    """Atomically publish ``manifest`` (last writer wins)."""
    store.put_json(
        KIND_RUNS,
        manifest_key(manifest.run_id),
        {
            "run_id": manifest.run_id,
            "fingerprint": manifest.fingerprint,
            "stages": manifest.stages,
        },
    )


def open_manifest(store, run_id: str, fingerprint: str, resume: bool) -> RunManifest:
    """The manifest to run under: resumed or fresh.

    With ``resume=True`` an existing, fingerprint-matching manifest is
    returned (its completed stages will be skipped); a fingerprint
    mismatch raises :class:`~repro.errors.ResumeError`, and a missing
    or corrupt manifest starts fresh — resuming a run that never
    checkpointed is just running it. With ``resume=False`` any previous
    manifest for the id is discarded.
    """
    if resume:
        manifest = load_manifest(store, run_id)
        if manifest is not None:
            if manifest.fingerprint != fingerprint:
                raise ResumeError(
                    f"cannot resume run {run_id!r}: its manifest was written "
                    "under a different configuration (seed or stage settings "
                    "changed); rerun without --resume"
                )
            return manifest
    return RunManifest(run_id=run_id, fingerprint=fingerprint)


# -- stage checkpoints ------------------------------------------------------


def save_probe_checkpoint(store, run_id: str, pages: Sequence) -> str:
    """Persist the probe stage's page sample; returns the payload key."""
    from repro.io.cache import page_to_record

    key = checkpoint_key(run_id, "probe")
    store.put_json(KIND_RUNS, key, [page_to_record(page) for page in pages])
    return key


def load_probe_checkpoint(store, run_id: str) -> Optional[list]:
    """Rebuild the checkpointed page sample, or ``None`` when the
    payload is missing or corrupt (the caller re-probes)."""
    from repro.io.cache import record_to_page

    payload = store.get_json(KIND_RUNS, checkpoint_key(run_id, "probe"))
    if not isinstance(payload, list):
        return None
    pages = []
    for record in payload:
        if not isinstance(record, dict):
            return None
        try:
            pages.append(record_to_page(record))
        except (KeyError, TypeError, ValueError):
            return None
    return pages


def save_cluster_checkpoint(store, run_id: str, result) -> str:
    """Persist a Phase-1 fit (:class:`PageClusteringResult`); returns
    the payload key.

    Only the fit itself is stored — labels, k, and the ranking scores.
    The pages the labels index are the quarantine survivors of the
    probe checkpoint, which the manifest already owns; storing them
    again would double the checkpoint for no information. JSON floats
    round-trip exactly (repr-based encoding), so a restored fit is
    bitwise-identical to the live one.
    """
    key = checkpoint_key(run_id, "cluster")
    store.put_json(
        KIND_RUNS,
        key,
        {
            "labels": list(result.clustering.labels),
            "k": result.clustering.k,
            "scores": [
                {
                    "cluster": score.cluster,
                    "size": score.size,
                    "avg_distinct_terms": score.avg_distinct_terms,
                    "avg_fanout": score.avg_fanout,
                    "avg_page_size": score.avg_page_size,
                    "combined": score.combined,
                }
                for score in result.scores
            ],
        },
    )
    return key


def load_cluster_checkpoint(store, run_id: str, pages: Sequence):
    """Rebuild the checkpointed Phase-1 fit over ``pages`` (the
    quarantine survivors, in order), or ``None`` when the payload is
    missing, corrupt, or does not label exactly ``len(pages)`` pages —
    any mismatch means the caller refits from scratch."""
    from repro.cluster.assignments import Clustering
    from repro.core.cluster_ranking import ClusterScore
    from repro.core.page_clustering import PageClusteringResult
    from repro.errors import ClusteringError

    payload = store.get_json(KIND_RUNS, checkpoint_key(run_id, "cluster"))
    if not isinstance(payload, dict):
        return None
    labels = payload.get("labels")
    k = payload.get("k")
    raw_scores = payload.get("scores")
    if (
        not isinstance(labels, list)
        or not isinstance(k, int)
        or isinstance(k, bool)
        or len(labels) != len(pages)
        or not isinstance(raw_scores, list)
        or not all(isinstance(entry, dict) for entry in raw_scores)
    ):
        return None
    try:
        clustering = Clustering(tuple(int(label) for label in labels), k)
        scores = tuple(
            ClusterScore(
                cluster=int(entry["cluster"]),
                size=int(entry["size"]),
                avg_distinct_terms=float(entry["avg_distinct_terms"]),
                avg_fanout=float(entry["avg_fanout"]),
                avg_page_size=float(entry["avg_page_size"]),
                combined=float(entry["combined"]),
            )
            for entry in raw_scores
        )
    except (ClusteringError, KeyError, TypeError, ValueError):
        return None
    return PageClusteringResult(tuple(pages), clustering, scores)


__all__ = [
    "KIND_RUNS",
    "MANIFEST_VERSION",
    "RunManifest",
    "checkpoint_key",
    "config_fingerprint",
    "load_cluster_checkpoint",
    "load_manifest",
    "load_probe_checkpoint",
    "manifest_key",
    "open_manifest",
    "save_cluster_checkpoint",
    "save_manifest",
    "save_probe_checkpoint",
]
