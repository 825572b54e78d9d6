"""``repro.artifacts``: the persistent artifact cache.

Repeated extraction over near-identical page sets is the dominant
production workload (wrapper maintenance: the same site re-probed
daily, re-extracted after every template tweak). This package persists
the pipeline's expensive intermediates across processes, one site run
at a time:

- a page pack per site (:mod:`repro.artifacts.pages`): each page's
  clustering signatures, template fingerprint and parsed tag tree
  (lossless codec), keyed by the SHA-256 of its HTML;
- a fitted site model per site and configuration, for incremental
  re-extraction (:mod:`repro.incremental`).

A cold site run publishes two files, the model and the pack; a warm
run parses no page and publishes only the model. Phase-2 candidate
records are not stored: a run rebuilds them from the page trees with
its stem memo, which costs about what reading them back did.
Interned :class:`~repro.vsm.matrix.VectorSpace` matrices are not
stored either: rebuilding one costs less than publishing it and
reading it back. ``trees/``, ``signatures/``, ``records/`` or
``spaces/`` directories left by an older version are never read;
``repro artifacts-gc`` evicts them like any other kind.

Pages are looked up by content hash inside their pack, and every key
folds in the version tags of the code that derived the artifact
(:mod:`repro.artifacts.keys`), so a hit is always exactly what a cold
computation would produce — the cache can make a run faster, never
different. Writes are atomic and last-writer-wins, so concurrent
processes may share one cache directory.

Enable via ``ExecutionConfig(cache_dir=...)``, the ``REPRO_CACHE_DIR``
environment variable, or the CLI ``--cache-dir`` flag; manage disk
usage with ``repro artifacts-gc``.
"""

from repro.artifacts.gc import GcReport, collect
from repro.artifacts.keys import (
    MODEL_VERSION,
    model_key,
    page_pack_key,
    sha256_hex,
)
from repro.artifacts.pages import (
    PagePack,
    payload_to_tree,
    tree_to_payload,
)
from repro.artifacts.stats import (
    artifact_report,
    format_artifact_report,
    store_usage,
)
from repro.artifacts.store import (
    KIND_MODELS,
    KIND_PAGES,
    ArtifactStore,
    load_persistent_stats,
    merge_persistent_stats,
)

__all__ = [
    "ArtifactStore",
    "GcReport",
    "KIND_MODELS",
    "KIND_PAGES",
    "MODEL_VERSION",
    "PagePack",
    "artifact_report",
    "collect",
    "format_artifact_report",
    "load_persistent_stats",
    "merge_persistent_stats",
    "model_key",
    "page_pack_key",
    "payload_to_tree",
    "sha256_hex",
    "store_usage",
    "tree_to_payload",
]
