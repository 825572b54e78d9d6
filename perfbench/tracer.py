"""Spans around each layer's entry points, patched in from outside.

The program has no spans of its own yet, so the traced run wraps the
public entry points of every layer (:data:`ENTRY_POINTS`). A function
is replaced in every loaded ``repro`` module that holds it, not only
where it is defined: ``from repro.html.parser import parse`` binds the
name in the importing module, and patching the definition alone would
miss those calls.

Each thread keeps its own parent stack. A span opened on a thread with
an empty stack (a probe or crawl fetch on an executor thread) takes
the innermost open span of the op's thread as its parent. Spans are
held in memory and written as JSONL by :meth:`Tracer.write`. A span's
self time is its duration minus the part of it that its child spans
cover. Pool workers are not traced: a forked worker inherits the
wrappers, which pass straight through outside the tracing process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: (span name, module, attribute path) for every traced entry point.
ENTRY_POINTS = (
    ("probe.probe", "repro.core.probing", "QueryProber.probe"),
    ("html.parse", "repro.html.parser", "parse"),
    ("text.extract_counts", "repro.text.terms", "TermExtractor.extract_counts"),
    ("core.cluster_fit", "repro.core.page_clustering", "PageClusterer.fit"),
    ("runtime.run_restarts", "repro.runtime", "run_restarts"),
    ("runtime.run_chunked", "repro.runtime", "run_chunked"),
    ("core.identify", "repro.core.identification", "PageletIdentifier.identify"),
    ("core.single_page", "repro.core.single_page", "candidate_subtrees_for_cluster"),
    ("core.single_page", "repro.core.single_page", "candidate_records_for_cluster"),
    ("core.group", "repro.core.subtree_sets", "find_common_subtree_sets"),
    ("core.rank", "repro.core.subtree_ranking", "rank_subtree_sets"),
    ("core.select", "repro.core.selection", "score_sets"),
    ("core.partition", "repro.core.partitioning", "ObjectPartitioner.partition"),
    ("artifacts.get", "repro.artifacts.store", "ArtifactStore.get_json"),
    ("artifacts.get", "repro.artifacts.store", "ArtifactStore.get_arrays"),
    ("artifacts.put", "repro.artifacts.store", "ArtifactStore.put_json"),
    ("artifacts.put", "repro.artifacts.store", "ArtifactStore.put_arrays"),
    ("incremental.load_model", "repro.incremental.model", "load_model"),
    ("incremental.save_model", "repro.incremental.model", "save_model"),
    ("incremental.assign", "repro.core.thor", "Thor._refresh_assign"),
    ("incremental.fingerprint", "repro.incremental.fingerprints", "page_fingerprint"),
    ("transport.fetch", "repro.transport.http", "HttpFetcher.fetch"),
    ("frontier.crawl", "repro.frontier.service", "CrawlService.crawl"),
    ("discovery.extract_links", "repro.discovery.crawler", "_extract_links"),
)

#: Spans whose per-op call count is reported.
CALL_METRICS = (
    "text.extract_counts",
    "html.parse",
    "core.partition",
    "runtime.run_chunked",
    "artifacts.put",
    "artifacts.get",
    "transport.fetch",
)

#: Spans whose per-op self time is reported.
SELF_METRICS = (
    "text.extract_counts",
    "core.group",
    "html.parse",
    "probe.probe",
    "core.single_page",
    "core.rank",
    "core.select",
    "core.partition",
    "transport.fetch",
    "frontier.crawl",
    "discovery.extract_links",
)

#: Spans whose per-op inclusive time is reported.
TOTAL_METRICS = (
    "core.identify",
    "core.cluster_fit",
    "runtime.run_restarts",
    "runtime.run_chunked",
    "artifacts.put",
    "artifacts.get",
    "incremental.load_model",
    "incremental.save_model",
    "incremental.assign",
    "incremental.fingerprint",
)


class Span(NamedTuple):
    id: int
    parent: "int | None"
    name: str
    op: "int | None"
    thread: int
    start: float
    end: float


class Tracer:
    """Records spans for the ops run inside :meth:`op`."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.artifact_gets = 0
        self.artifact_hits = 0
        self.bytes_written = 0
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._op = None
        self._op_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point wherever a loaded module holds it."""
        for name, module_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                self._set(owner, leaf, self._wrap(name, original))
                continue
            original = getattr(module, leaf)
            wrapped = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro"):
                    if loaded.__dict__.get(leaf) is original:
                        self._set(loaded, leaf, wrapped)
        store = importlib.import_module("repro.artifacts.store").ArtifactStore
        self._set(store, "_publish", self._count_bytes(store.__dict__["_publish"]))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        # A module first imported while the wrappers were in place bound
        # the wrapper itself; put the original back there too.
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro"):
                for attribute, value in list(loaded.__dict__.items()):
                    original = getattr(value, "__dict__", {}).get("__perfbench_original__")
                    if original is not None:
                        setattr(loaded, attribute, original)

    def _set(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _wrap(self, name: str, fn):
        tracer = self
        is_get = name == "artifacts.get"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._op_stack[-1] if tracer._op_stack else None
            span_id = tracer._new_id()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, parent, name, tracer._op,
                         threading.get_ident(), start, end)
                )
            if is_get:
                tracer.artifact_gets += 1
                tracer.artifact_hits += result is not None
            return result

        traced.__perfbench_original__ = fn
        return traced

    def _count_bytes(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(store, path, payload):
            if os.getpid() == tracer.pid:
                tracer.bytes_written += len(payload)
            return fn(store, path, payload)

        return counted

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    @contextlib.contextmanager
    def op(self, index: int):
        """One traced op, recorded as the root span of its spans."""
        span_id = self._new_id()
        self._op = index
        self._op_stack = self._stack()
        self._op_stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._op_stack.pop()
            self.spans.append(
                Span(span_id, None, "op", index, threading.get_ident(), start, end)
            )
            self._op = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = span._asdict()
                record["duration_ms"] = (span.end - span.start) * 1e3
                handle.write(json.dumps(record) + "\n")

    # -- per-layer summaries -------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self ms and inclusive ms over all spans.

        Inclusive time counts only spans with no ancestor of the same
        name, so a recursive entry point is not counted twice.
        """
        by_id = {span.id: span for span in self.spans}
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "ms": 0.0})
        for span in self.spans:
            entry = totals[span.name]
            entry["calls"] += 1
            duration = span.end - span.start
            covered = _covered(span, children.get(span.id, ()))
            entry["self_ms"] += (duration - covered) * 1e3
            ancestor = by_id.get(span.parent)
            while ancestor is not None and ancestor.name != span.name:
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:
                entry["ms"] += duration * 1e3
        return totals


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals within ``span``.

    Children on other threads may overlap each other, so their
    durations cannot simply be summed.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda child: child.start):
        low, high = max(child.start, reach), min(child.end, span.end)
        if high > low:
            covered += high - low
            reach = high
    return covered
