"""``repro.artifacts``: the persistent, content-addressed artifact cache.

Repeated extraction over near-identical page sets is the dominant
production workload (wrapper maintenance: the same site re-probed
daily, re-extracted after every template tweak). This package persists
the pipeline's expensive intermediates across processes:

- parsed tag trees (lossless codec, :mod:`repro.artifacts.pages`),
- page clustering signatures (tag/term counts + max fanout),
- Phase-2 per-page candidate-subtree records (the ⟨path, fanout,
  depth, node-count⟩ quadruples plus subtree term counts),
- fitted site models for incremental re-extraction
  (:mod:`repro.incremental`).

Interned :class:`~repro.vsm.matrix.VectorSpace` matrices are not
stored: rebuilding one costs less than publishing it and reading it
back. A ``spaces/`` directory left by an older version is never read;
``repro artifacts-gc`` evicts it like any other kind.

Everything is keyed by SHA-256 of the source content plus derivation
version tags (:mod:`repro.artifacts.keys`), so a hit is always exactly
what a cold computation would produce — the cache can make a run
faster, never different. Writes are atomic and last-writer-wins, so
concurrent processes may share one cache directory.

Enable via ``ExecutionConfig(cache_dir=...)``, the ``REPRO_CACHE_DIR``
environment variable, or the CLI ``--cache-dir`` flag; manage disk
usage with ``repro artifacts-gc``.
"""

from repro.artifacts.gc import GcReport, collect
from repro.artifacts.keys import (
    MODEL_VERSION,
    candidate_records_key,
    model_key,
    page_signature_key,
    page_tree_key,
    sha256_hex,
)
from repro.artifacts.pages import (
    cached_signature,
    cached_tree,
    payload_to_tree,
    put_signature,
    put_tree,
    tree_to_payload,
)
from repro.artifacts.stats import (
    artifact_report,
    format_artifact_report,
    store_usage,
)
from repro.artifacts.store import (
    KIND_MODELS,
    KIND_RECORDS,
    KIND_SIGNATURES,
    KIND_TREES,
    ArtifactStore,
    load_persistent_stats,
    merge_persistent_stats,
)

__all__ = [
    "ArtifactStore",
    "GcReport",
    "KIND_MODELS",
    "KIND_RECORDS",
    "KIND_SIGNATURES",
    "KIND_TREES",
    "MODEL_VERSION",
    "artifact_report",
    "cached_signature",
    "cached_tree",
    "candidate_records_key",
    "collect",
    "format_artifact_report",
    "load_persistent_stats",
    "merge_persistent_stats",
    "model_key",
    "page_signature_key",
    "page_tree_key",
    "payload_to_tree",
    "put_signature",
    "put_tree",
    "sha256_hex",
    "store_usage",
    "tree_to_payload",
]
