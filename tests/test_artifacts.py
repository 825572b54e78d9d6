"""Tests for the persistent artifact store and the site page pack."""

from __future__ import annotations

import json
import os
from unittest import mock

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactStore,
    KIND_MODELS,
    KIND_PAGES,
    PagePack,
    artifact_report,
    collect,
    format_artifact_report,
    load_persistent_stats,
    merge_persistent_stats,
    model_key,
    page_pack_key,
    payload_to_tree,
    store_usage,
    tree_to_payload,
)
from repro.artifacts import keys as artifact_keys
from repro.artifacts.gc import iter_entries
from repro.config import ExecutionConfig, resolve_cache_dir
from repro.core import page as page_module
from repro.core.page import Page
from repro.html.parser import parse
from repro.incremental import page_content_key, page_fingerprint


HTML = "<html><body><div id='a'>hello <b>world</b></div><p>x</p></body></html>"
SITE = "shop.example"


def _key(page) -> str:
    return page_content_key(page.html)


def _fingerprint(page) -> frozenset:
    return page_fingerprint(page.tree)


def _publish(store, pages, site=SITE) -> PagePack:
    """Publish the pack of ``pages`` (all missing) and read it back."""
    assert PagePack(store, site).publish(pages, _key, _fingerprint)
    return PagePack(store, site)


def _write_pack(store, entries, site=SITE) -> None:
    store.put_json(KIND_PAGES, page_pack_key(site), entries)


def _stored(store, site=SITE) -> dict:
    return store.get_json(KIND_PAGES, page_pack_key(site))


@pytest.fixture
def counted_parses():
    """Counts the parses of lazily loaded page trees."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    with mock.patch.object(page_module, "parse", counting):
        yield calls


class TestKeys:
    def test_keys_are_deterministic(self):
        assert page_pack_key(SITE) == page_pack_key(SITE)
        assert model_key(SITE, "cfg") == model_key(SITE, "cfg")

    def test_keys_differ_by_content(self):
        assert page_pack_key(SITE) != page_pack_key("other.example")

    def test_kinds_of_one_page_get_distinct_keys(self):
        assert page_pack_key(SITE) != model_key(SITE, "cfg")

    @pytest.mark.parametrize(
        "version", ["PARSER_VERSION", "SIGNATURE_VERSION", "EXTRACTOR_VERSION"]
    )
    def test_pack_key_changes_with_each_version(self, version, monkeypatch):
        before = page_pack_key(SITE)
        monkeypatch.setattr(
            artifact_keys, version, getattr(artifact_keys, version) + 1
        )
        assert page_pack_key(SITE) != before


class TestStore:
    def test_json_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        value = {"b": 2, "a": [1, "x", None]}
        store.put_json(KIND_PAGES, "ab" * 32, value)
        loaded = store.get_json(KIND_PAGES, "ab" * 32)
        assert loaded == value
        # JSON preserves dict insertion order.
        assert list(loaded) == ["b", "a"]
        assert store.stats() == {
            "hits": 1, "misses": 0, "puts": 1,
            "bytes_written": store.stats()["bytes_written"],
        }

    def test_missing_key_is_counted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get_json(KIND_PAGES, "00" * 32) is None
        assert store.stats()["misses"] == 1

    def test_corrupt_file_is_counted_miss_and_repairable(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "cd" * 32
        store.put_json(KIND_PAGES, key, [1, 2])
        path = store._path(KIND_PAGES, key, "json")
        with open(path, "wb") as handle:
            handle.write(b"{truncated")
        assert store.get_json(KIND_PAGES, key) is None
        assert store.stats()["misses"] == 1
        store.put_json(KIND_PAGES, key, [1, 2])
        assert store.get_json(KIND_PAGES, key) == [1, 2]

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json(KIND_PAGES, "ef" * 32, {"k": 1})
        leftovers = [
            name
            for _, _, files in os.walk(tmp_path)
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_array_round_trip_is_bitwise(self, tmp_path):
        store = ArtifactStore(tmp_path)
        matrix = np.array([[0.1, 0.2], [1.0 / 3.0, 7e-300]])
        norms = np.array([1.0, 0.999999999999])
        store.put_arrays(
            KIND_MODELS, "12" * 32, {"matrix": matrix, "norms": norms},
            meta={"features": ["a", "b"]},
        )
        bundle = store.get_arrays(KIND_MODELS, "12" * 32)
        assert bundle["meta"] == {"features": ["a", "b"]}
        assert np.array_equal(bundle["matrix"], matrix)
        assert np.array_equal(bundle["norms"], norms)

    def test_stats_ledger_accumulates_across_flushes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json(KIND_PAGES, "aa" * 32, 1)
        store.get_json(KIND_PAGES, "aa" * 32)
        store.flush_stats()
        assert store.stats()["puts"] == 0  # folded into the ledger
        other = ArtifactStore(tmp_path)  # a second process
        other.get_json(KIND_PAGES, "no" * 32)
        other.flush_stats()
        ledger = load_persistent_stats(tmp_path)
        assert ledger["puts"] == 1
        assert ledger["hits"] == 1
        assert ledger["misses"] == 1

    def test_merge_persistent_stats_survives_corrupt_ledger(self, tmp_path):
        (tmp_path / "stats.json").write_text("not json")
        totals = merge_persistent_stats(tmp_path, {"hits": 2})
        assert totals == {"hits": 2}


class TestTreeCodec:
    def test_round_trip_is_lossless(self):
        tree = parse(HTML)
        rebuilt = payload_to_tree(tree_to_payload(tree))
        # Equal payloads == equal node structure (tags, attrs, text,
        # order) — the codec is its own witness.
        assert tree_to_payload(rebuilt) == tree_to_payload(tree)

    def test_cached_tree_round_trip(self, tmp_path, counted_parses):
        store = ArtifactStore(tmp_path)
        assert PagePack(store, SITE).prime(Page(HTML), page_content_key(HTML)) is None
        pack = _publish(store, [Page(HTML)])
        counted_parses.clear()
        page = Page(HTML, url="http://x/")
        fingerprint = pack.prime(page, page_content_key(HTML))
        assert fingerprint == page_fingerprint(parse(HTML))
        assert page.tree.url == "http://x/"
        assert tree_to_payload(page.tree) == tree_to_payload(parse(HTML))
        assert counted_parses == []  # decoded from the pack, not parsed

    def test_string_root_payload_rejected(self, tmp_path, counted_parses):
        store = ArtifactStore(tmp_path)
        key = page_content_key(HTML)
        _publish(store, [Page(HTML)])
        entry = dict(_stored(store)[key])
        entry["tree"] = json.dumps("just text")
        _write_pack(store, {key: entry})
        pack = PagePack(store, SITE)
        page = Page(HTML)
        assert pack.prime(page, key) is not None
        counted_parses.clear()
        assert tree_to_payload(page.tree) == tree_to_payload(parse(HTML))
        assert len(counted_parses) == 1  # the payload was refused
        # The run that met the bad tree re-encodes it from the parse.
        assert pack.publish([page], _key, _fingerprint)
        assert _stored(store)[key]["tree"] != entry["tree"]


class TestSignatures:
    def test_round_trip_preserves_count_order(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = page_content_key(HTML)
        _publish(store, [Page(HTML)])
        entry = dict(_stored(store)[key])
        entry.update(
            tag_counts={"div": 2, "b": 1},
            term_counts={"world": 1, "hello": 1},
            max_fanout=3,
        )
        _write_pack(store, {key: entry})
        page = Page(HTML)
        assert PagePack(store, SITE).prime(page, key) is not None
        assert list(page.term_counts()) == ["world", "hello"]
        assert list(page.tag_counts()) == ["div", "b"]
        assert page.max_fanout() == 3

    def test_incomplete_bundle_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        other = HTML.replace("hello", "goodbye")
        pages = [Page(HTML), Page(other)]
        _publish(store, pages)
        entries = _stored(store)
        key = page_content_key(HTML)
        malformed = [
            {"tag_counts": {}},
            dict(entries[key], term_counts={"hello": "1"}),
            dict(entries[key], fingerprint=["0"]),
            dict(entries[key], max_fanout=2.0),
            dict(entries[key], tree=["html", [], []]),
            "not a bundle",
        ]
        for bad in malformed:
            _write_pack(store, dict(entries, **{key: bad}))
            pack = PagePack(store, SITE)
            fresh = [Page(HTML), Page(other)]
            # A malformed entry misses only its own page.
            assert pack.prime(fresh[0], key) is None
            assert pack.prime(fresh[1], page_content_key(other)) is not None
            assert fresh[0].tag_counts() == pages[0].tag_counts()
            # ...and the run that missed it publishes a whole pack.
            assert pack.publish(fresh, _key, _fingerprint)
            assert _stored(store) == entries

    def test_unknown_page_and_foreign_extractor_miss(self, tmp_path):
        from repro.text.terms import TermExtractor

        store = ArtifactStore(tmp_path)
        pack = _publish(store, [Page(HTML)])
        assert pack.prime(Page(HTML + " "), page_content_key(HTML + " ")) is None
        foreign = Page(HTML, extractor=TermExtractor(stem=False))
        assert pack.prime(foreign, page_content_key(HTML)) is None
        # Pages another extractor counts never enter a pack.
        assert not pack.publish([foreign], _key, _fingerprint)


class TestGc:
    def _fill(self, tmp_path, n=6):
        store = ArtifactStore(tmp_path)
        for i in range(n):
            store.put_json(KIND_PAGES, f"{i:02d}" * 32, {"i": i, "pad": "x" * 64})
        store.flush_stats()
        return store

    def test_pure_scan_removes_nothing(self, tmp_path):
        self._fill(tmp_path)
        report = collect(tmp_path)
        assert report.removed_entries == 0
        assert report.scanned_entries == 6

    def test_byte_budget_evicts_oldest_first(self, tmp_path):
        self._fill(tmp_path)
        entries = sorted(iter_entries(tmp_path), key=lambda e: (e[2], e[0]))
        per_entry = entries[0][1]
        report = collect(tmp_path, max_bytes=3 * per_entry)
        assert report.removed_entries == 3
        survivors = {path for path, _, _ in iter_entries(tmp_path)}
        # The oldest three are the ones gone.
        assert all(e[0] not in survivors for e in entries[:3])
        assert report.kept_bytes <= 3 * per_entry

    def test_age_limit_evicts_expired(self, tmp_path):
        self._fill(tmp_path)
        stale = sorted(iter_entries(tmp_path))[0][0]
        os.utime(stale, (1, 1))
        report = collect(tmp_path, max_age_s=3600)
        assert report.removed_entries == 1
        assert not os.path.exists(stale)

    @pytest.mark.parametrize("bound", [{"max_bytes": -1}, {"max_age_s": -1.0}])
    def test_negative_bound_rejected(self, tmp_path, bound):
        # A negative bound would evict every entry; it is refused
        # before the scan.
        self._fill(tmp_path)
        with pytest.raises(ValueError, match="must be >= 0"):
            collect(tmp_path, **bound)
        assert len(list(iter_entries(tmp_path))) == 6

    def test_stats_ledger_never_evicted(self, tmp_path):
        self._fill(tmp_path)
        paths = [path for path, _, _ in iter_entries(tmp_path)]
        assert all(not p.endswith("stats.json") for p in paths)
        collect(tmp_path, max_bytes=0)
        assert os.path.exists(tmp_path / "stats.json")
        assert list(iter_entries(tmp_path)) == []

    def test_models_evicted_only_after_other_kinds(self, tmp_path):
        store = self._fill(tmp_path)
        store.put_json(KIND_MODELS, "ab" * 32, {"pad": "x" * 64})
        entries = {
            path: size for path, size, _ in iter_entries(tmp_path)
        }
        model_path = next(
            path
            for path in entries
            if os.path.relpath(path, tmp_path).split(os.sep)[0] == "models"
        )
        os.utime(model_path, (1, 1))  # make the model the oldest entry
        record_size = max(
            size for path, size in entries.items() if path != model_path
        )
        collect(tmp_path, max_bytes=entries[model_path] + record_size)
        # Oldest entry in the store, yet it outlives every evicted
        # record: the byte budget drains non-model kinds first.
        assert os.path.exists(model_path)
        survivors = {path for path, _, _ in iter_entries(tmp_path)}
        assert len(survivors) == 2  # the model + the newest record
        # With everything else gone, models are fair game.
        collect(tmp_path, max_bytes=0)
        assert not os.path.exists(model_path)

    def test_age_expiry_still_reaps_models(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json(KIND_MODELS, "ab" * 32, {"pad": "x" * 64})
        model_path = next(path for path, _, _ in iter_entries(tmp_path))
        os.utime(model_path, (1, 1))
        report = collect(tmp_path, max_age_s=3600)
        assert report.removed_entries == 1
        assert not os.path.exists(model_path)

    def test_usage_report_accounts_models_kind(self, tmp_path):
        store = self._fill(tmp_path)
        store.put_json(KIND_MODELS, "ab" * 32, {"pad": "x" * 64})
        text = format_artifact_report(artifact_report(tmp_path))
        assert "models: 1 entries" in text

    def test_usage_report_breaks_down_by_kind(self, tmp_path):
        store = self._fill(tmp_path)
        store.put_json(KIND_MODELS, "ab" * 32, {"pad": "x" * 64})
        usage = store_usage(tmp_path)
        assert usage["entries"] == 7
        report = artifact_report(tmp_path)
        text = format_artifact_report(report)
        assert "pages: 6 entries" in text
        assert "models: 1 entries" in text
        assert "lifetime:" in text


class TestResolveCacheDir:
    def test_explicit_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        assert resolve_cache_dir(execution) == str(tmp_path)

    def test_env_var_fills_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache_dir(ExecutionConfig()) == str(tmp_path)
        assert resolve_cache_dir(None) == str(tmp_path)

    def test_unset_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(ExecutionConfig()) is None

    def test_artifact_cache_off_disables_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        execution = ExecutionConfig(
            cache_dir=str(tmp_path), artifact_cache="off"
        )
        assert resolve_cache_dir(execution) is None


class TestStoreRegistry:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        from repro.runtime import clear_artifact_store_registry

        clear_artifact_store_registry()
        yield
        clear_artifact_store_registry()

    def test_memoized_per_root(self, tmp_path):
        from repro.runtime import artifact_store_for

        execution = ExecutionConfig(cache_dir=str(tmp_path))
        first = artifact_store_for(execution)
        second = artifact_store_for(ExecutionConfig(cache_dir=str(tmp_path)))
        assert first is second
        assert first.root == str(tmp_path)

    def test_none_without_configuration(self, monkeypatch):
        from repro.runtime import artifact_store_for

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert artifact_store_for(None) is None
        assert artifact_store_for(ExecutionConfig()) is None


class TestColdRunStore:
    """What one run of the pipeline leaves in a fresh store."""

    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        from repro.runtime import clear_artifact_store_registry

        clear_artifact_store_registry()
        yield
        clear_artifact_store_registry()

    @staticmethod
    def _run(execution):
        from repro import api

        config = api.ThorConfig(seed=3, execution=execution)
        return api.run(api.make_site("music", seed=3), config)

    def test_cold_run_writes_no_spaces(self, tmp_path):
        from repro.io.export import result_digest

        stored = self._run(ExecutionConfig(cache_dir=str(tmp_path)))
        storeless = self._run(ExecutionConfig(artifact_cache="off"))
        # Phase-2 ranking builds each set's space in memory and Phase 2
        # rebuilds records from the page trees: a cold site run writes
        # its page pack and its model, and the output is the storeless one.
        assert not (tmp_path / "spaces").exists()
        assert store_usage(tmp_path)["kinds"] == {
            "pages": {"entries": 1, "bytes": mock.ANY},
            "models": {"entries": 1, "bytes": mock.ANY},
        }
        assert result_digest(stored) == result_digest(storeless)

    def test_run_flushes_every_publish_to_the_ledger(self, tmp_path):
        from repro import api
        from repro.core.thor import Thor
        from repro.runtime import artifact_store_for

        execution = ExecutionConfig(cache_dir=str(tmp_path))
        thor = Thor(api.ThorConfig(seed=3, execution=execution))
        thor.run(api.make_site("music", seed=3))
        # The site model and the page pack publish after Stage 3; the
        # ledger still sees them, because the run flushes last.
        assert set(artifact_store_for(execution).stats().values()) == {0}
        ledger = load_persistent_stats(tmp_path)
        on_disk = sum(size for _, size, _ in iter_entries(tmp_path))
        assert on_disk > 0
        assert ledger["bytes_written"] >= on_disk
        assert {k: v for k, v in thor.artifact_stats().items() if v} == ledger

    def test_legacy_spaces_directory_is_ignored_and_collected(self, tmp_path):
        from repro.io.export import result_digest

        execution = ExecutionConfig(cache_dir=str(tmp_path))
        cold = result_digest(self._run(execution))
        # A bundle in the layout older versions published for every
        # common subtree set: reported and evicted, never read.
        ArtifactStore(tmp_path).put_arrays(
            "spaces",
            "5a" * 32,
            {"matrix": np.ones((2, 2)), "norms": np.ones(2)},
            meta={"features": ["a", "b"]},
        )
        hits = load_persistent_stats(tmp_path).get("hits", 0)
        assert result_digest(self._run(execution)) == cold
        assert load_persistent_stats(tmp_path)["hits"] > hits  # a warm run
        report = artifact_report(tmp_path)
        assert report["kinds"]["spaces"]["entries"] == 1
        assert "spaces: 1 entries" in format_artifact_report(report)
        collect(tmp_path, max_bytes=0)
        assert "spaces" not in store_usage(tmp_path)["kinds"]

    def test_warm_run_parses_no_page(self, tmp_path, counted_parses):
        from repro import api
        from repro.core.thor import Thor
        from repro.io.export import result_digest
        from repro.runtime import clear_artifact_store_registry

        def run(execution):
            clear_artifact_store_registry()
            thor = Thor(api.ThorConfig(seed=5, execution=execution))
            counted_parses.clear()
            result = thor.run(api.make_site("travel", seed=5))
            return result_digest(result), len(counted_parses), thor.artifact_stats()

        storeless, _, _ = run(ExecutionConfig(artifact_cache="off"))
        cold = run(ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path)))
        warm = run(ExecutionConfig(cache_dir=str(tmp_path)))
        assert cold[0] == warm[0] == storeless
        assert cold[1] > 0
        assert cold[2]["puts"] == 2 and cold[2]["misses"] == 1
        # Every page comes from the pack: no parse, one read, and the
        # only publish is the site model.
        assert warm[1] == 0
        assert {k: warm[2][k] for k in ("hits", "misses", "puts")} == {
            "hits": 1, "misses": 0, "puts": 1,
        }

    def test_legacy_page_tiers_are_ignored_and_collected(self, tmp_path):
        from repro.io.export import result_digest

        # One file per page in each tier of older versions: a store
        # that holds only those misses the page pack once.
        legacy = ArtifactStore(tmp_path)
        for kind in ("trees", "signatures", "records"):
            legacy.put_json(kind, "7e" * 32, {"legacy": kind})
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        cold = self._run(execution)
        assert result_digest(cold) == result_digest(
            self._run(ExecutionConfig(artifact_cache="off"))
        )
        kinds = artifact_report(tmp_path)["kinds"]
        assert {kind: kinds[kind]["entries"] for kind in kinds} == {
            "trees": 1, "signatures": 1, "records": 1, "pages": 1, "models": 1,
        }
        collect(tmp_path, max_bytes=0)
        assert store_usage(tmp_path)["kinds"] == {}
