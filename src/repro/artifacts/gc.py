"""Artifact-store garbage collection.

Eviction is oldest-first by modification time — the store is a cache,
so LRU-ish recency is the right victim order — under two independent
bounds: a byte budget (``max_bytes``) and an age limit (``max_age_s``).
Either bound alone works; together, age-expired entries go first and
the byte budget is enforced on what remains.

One kind is special-cased under the byte budget: ``models/`` (the
fitted-model bundles driving incremental re-extraction,
:mod:`repro.incremental`). A model saves a refit: the K-Means
restarts and the Phase-2 analysis of every forwarded cluster. A site's
page pack (``pages/``) saves only the parsing and signature analysis
of its pages, and a refresh whose pack is gone still replays from its
model; the reverse is a full refit. A site run writes its pack *after*
its model, so a plain oldest-first sweep would evict a model before
the pack of the same run — losing the expensive artifact and keeping
the cheap one. Budget eviction therefore drains every other kind
(oldest first) before touching a model; models themselves then go
oldest-first. Age expiry still applies to models by their own mtime —
a stale model is stale however it ranks against other kinds.

GC is concurrent-writer safe for the same reason writes are: entries
are whole files, removal is atomic, and a reader that loses the race
simply sees a miss and recomputes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

_ARTIFACT_EXTENSIONS = (".json", ".npz")

#: Kinds evicted only after every other kind is exhausted (see module
#: docstring).
_EVICT_LAST_KINDS = frozenset({"models"})


@dataclass(frozen=True)
class GcReport:
    """What one :func:`collect` pass did."""

    scanned_entries: int
    scanned_bytes: int
    removed_entries: int
    removed_bytes: int

    @property
    def kept_entries(self) -> int:
        return self.scanned_entries - self.removed_entries

    @property
    def kept_bytes(self) -> int:
        return self.scanned_bytes - self.removed_bytes


def iter_entries(root: str | os.PathLike):
    """Yield ``(path, size, mtime)`` for every artifact under ``root``.

    The ``stats.json`` ledger and in-flight ``.tmp`` files are not
    artifacts and are never yielded (so never evicted).
    """
    root = os.fspath(root)
    for directory, _subdirs, files in os.walk(root):
        for name in files:
            if not name.endswith(_ARTIFACT_EXTENSIONS):
                continue
            if name == "stats.json" and directory == root:
                # The counter ledger is not an artifact (never evicted).
                continue
            path = os.path.join(directory, name)
            try:
                info = os.stat(path)
            except OSError:
                continue  # lost a race with a concurrent GC/replace
            yield path, info.st_size, info.st_mtime


def collect(
    root: str | os.PathLike,
    max_bytes: Optional[int] = None,
    max_age_s: Optional[float] = None,
    now: Optional[float] = None,
) -> GcReport:
    """Evict artifacts until the store fits the given bounds.

    ``max_bytes=None`` disables the byte budget; ``max_age_s=None``
    disables age expiry. With both ``None`` this is a pure scan
    (nothing is removed). A negative bound raises :class:`ValueError`:
    it would evict every entry.
    """
    for name, bound in (("max_bytes", max_bytes), ("max_age_s", max_age_s)):
        if bound is not None and bound < 0:
            raise ValueError(f"{name} must be >= 0, got {bound}")
    root = os.fspath(root)
    entries = sorted(iter_entries(root), key=lambda e: (e[2], e[0]))
    scanned_bytes = sum(size for _, size, _ in entries)
    cutoff = None if max_age_s is None else (now or time.time()) - max_age_s

    def evicts_last(path: str) -> bool:
        kind = os.path.relpath(path, root).split(os.sep, 1)[0]
        return kind in _EVICT_LAST_KINDS

    removed_entries = 0
    removed_bytes = 0
    remaining_bytes = scanned_bytes
    removed_paths: set[str] = set()

    def remove(path: str, size: int) -> None:
        nonlocal removed_entries, removed_bytes, remaining_bytes
        try:
            os.unlink(path)
        except OSError:
            return  # already removed by a concurrent GC
        removed_paths.add(path)
        removed_entries += 1
        removed_bytes += size
        remaining_bytes -= size

    # Pass 1 — age expiry: own-mtime, all kinds alike.
    if cutoff is not None:
        for path, size, mtime in entries:
            if mtime >= cutoff:
                break  # sorted by mtime: everything after is fresher
            remove(path, size)

    # Pass 2 — byte budget: non-model kinds oldest-first, models only
    # once everything else is gone (see module docstring).
    if max_bytes is not None:
        budget_order = sorted(
            entries, key=lambda e: (evicts_last(e[0]), e[2], e[0])
        )
        for path, size, mtime in budget_order:
            if remaining_bytes <= max_bytes:
                break
            if path in removed_paths:
                continue
            remove(path, size)
    return GcReport(
        scanned_entries=len(entries),
        scanned_bytes=scanned_bytes,
        removed_entries=removed_entries,
        removed_bytes=removed_bytes,
    )


__all__ = ["GcReport", "collect", "iter_entries"]
