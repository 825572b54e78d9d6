"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os

import pytest

from repro.cli import _PLAN, _fault_plan, _thor_config, build_parser, main
from repro.config import StageTimeouts, ThorConfig
from repro.probe import FaultSpec
from repro.resilience import FaultPlan


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_probe_defaults(self):
        args = build_parser().parse_args(["probe"])
        assert args.domain == "ecommerce"
        assert args.seed == 0
        assert args.out == "pages.jsonl"

    def test_extract_requires_pages(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["extract"])

    def test_search_requires_query(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search"])

    def test_common_knobs(self):
        args = build_parser().parse_args(
            ["demo", "--seed", "9", "--k", "3", "--top-m", "1"]
        )
        config = _thor_config(args)
        assert config.seed == 9
        assert config.clustering.k == 3
        assert config.clustering.top_m == 1

    def test_backend_rejects_unknown(self):
        # numpy is the only compute path: --backend is no option at all.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--backend", "fortran"])

    def test_stage_timeout_sets_every_stage_or_one(self):
        from repro.cli import _thor_config
        from repro.config import StageTimeouts

        args = build_parser().parse_args(
            ["demo", "--stage-timeout", "30", "--stage-timeout", "probe=120"]
        )
        assert _thor_config(args).execution.stage_timeouts == StageTimeouts(
            probe=120.0, cluster=30.0, identify=30.0, partition=30.0
        )
        for bad in ("upload=5", "probe=0", "soon"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["demo", "--stage-timeout", bad])

    def test_jobs_flag(self):
        args = build_parser().parse_args(["demo", "--jobs", "2"])
        assert _thor_config(args).execution.n_jobs == 2
        args = build_parser().parse_args(["search", "--query", "q",
                                          "--jobs", "0"])
        assert _thor_config(args).execution.n_jobs == 0

    def test_jobs_threaded_into_config(self):
        from repro.cli import _thor_config

        args = build_parser().parse_args(["extract", "--pages", "p", "--jobs", "2"])
        config = _thor_config(args)
        assert config.execution.n_jobs == 2
        default = _thor_config(build_parser().parse_args(["demo"]))
        assert default.execution.n_jobs == 1

    def test_probe_execution_and_report_flags(self):
        # Stage 1 is concurrency-aware: --jobs fans probes out, --rate
        # caps the per-site budget, --probe-report prints telemetry.
        args = build_parser().parse_args(
            ["probe", "--jobs", "4", "--rate", "50", "--probe-report"]
        )
        config = _thor_config(args)
        assert config.execution.n_jobs == 4
        assert config.probing.rate == 50.0
        assert args.probe_report is True
        assert build_parser().parse_args(["probe"]).probe_report is False

    def test_probe_rate_threaded_into_config(self):
        from repro.cli import _thor_config

        args = build_parser().parse_args(
            ["probe", "--jobs", "2", "--rate", "25"]
        )
        config = _thor_config(args)
        assert config.execution.n_jobs == 2
        assert config.probing.rate == 25.0

    def test_probe_fault_flags(self):
        # The --fault-* flags are the chaos plan's source faults, which
        # Thor wraps around the probed site.
        args = build_parser().parse_args(
            ["probe", "--fault-error-rate", "0.3",
             "--fault-latency-ms", "5", "--fault-throttle-rate", "0.1"]
        )
        assert _fault_plan(args) == FaultPlan(
            seed=0,
            source=FaultSpec(latency_s=0.005, error_rate=0.3, throttle_rate=0.1),
        )


#: Each subcommand's option strings as they stood before every config
#: flag named its field: the flag-to-field rule adds and drops none.
OPTION_STRINGS = {
    "probe": {
        "--cache-dir", "--chaos-artifact-corrupt-rate",
        "--chaos-chunk-error-rate", "--chaos-page-failure-rate",
        "--chaos-seed", "--chaos-worker-crash-rate", "--chunk-retries",
        "--distance-memo-entries", "--domain", "--fault-error-rate",
        "--fault-latency-ms", "--fault-throttle-rate", "--help", "--jobs",
        "--k", "--min-surviving-fraction", "--no-artifact-cache",
        "--no-recovery", "--out", "--probe-report", "--rate", "--records",
        "--report", "--seed", "--stage-timeout", "--top-m", "-h",
    },
    "extract": {
        "--cache-dir", "--chaos-artifact-corrupt-rate",
        "--chaos-chunk-error-rate", "--chaos-page-failure-rate",
        "--chaos-seed", "--chaos-worker-crash-rate", "--chunk-retries",
        "--distance-memo-entries", "--help", "--html", "--jobs", "--k",
        "--min-surviving-fraction", "--no-artifact-cache", "--no-recovery",
        "--out", "--pages", "--records", "--report", "--seed",
        "--stage-timeout", "--top-m", "-h",
    },
    "run": {
        "--cache-dir", "--chaos-artifact-corrupt-rate",
        "--chaos-chunk-error-rate", "--chaos-page-failure-rate",
        "--chaos-seed", "--chaos-worker-crash-rate", "--chunk-retries",
        "--distance-memo-entries", "--domain", "--drift-pages",
        "--drift-structure", "--drift-threshold", "--help", "--html",
        "--incremental", "--incremental-mode", "--jobs", "--k",
        "--min-surviving-fraction", "--no-artifact-cache", "--no-recovery",
        "--out", "--records", "--report", "--resume", "--run-id", "--seed",
        "--stage-timeout", "--top-m", "-h",
    },
    "fleet": {
        "--cache-dir", "--chaos-artifact-corrupt-rate",
        "--chaos-chunk-error-rate", "--chaos-page-failure-rate",
        "--chaos-seed", "--chaos-worker-crash-rate", "--chunk-retries",
        "--default-quota", "--distance-memo-entries", "--fleet-id",
        "--help", "--jobs", "--k", "--max-sites", "--min-surviving-fraction",
        "--no-artifact-cache", "--no-recovery", "--quota", "--records",
        "--report", "--resume", "--seed", "--sites", "--stage-timeout",
        "--top-m", "-h",
    },
    "crawl": {
        "--batch-size", "--breaker-cooldown", "--breaker-failures",
        "--burst", "--cache-dir", "--chaos-artifact-corrupt-rate",
        "--chaos-chunk-error-rate", "--chaos-page-failure-rate",
        "--chaos-seed", "--chaos-worker-crash-rate", "--chunk-retries",
        "--crawl-id", "--distance-memo-entries", "--exclude", "--help",
        "--hostile-ports", "--jobs", "--max-depth", "--max-pages",
        "--max-pages-per-run", "--min-surviving-fraction",
        "--no-artifact-cache", "--no-recovery", "--no-robots", "--out",
        "--rate", "--records", "--report", "--resume", "--seed",
        "--shard-pages", "--stage-timeout", "--transport-connect-timeout",
        "--transport-max-bytes", "--transport-max-redirects",
        "--transport-read-timeout", "--url", "--web-pages", "--web-portals",
        "-h",
    },
    "artifacts-gc": {
        "--cache-dir", "--help", "--max-age-days", "--max-bytes", "-h",
    },
    "demo": {
        "--cache-dir", "--chaos-artifact-corrupt-rate",
        "--chaos-chunk-error-rate", "--chaos-page-failure-rate",
        "--chaos-seed", "--chaos-worker-crash-rate", "--chunk-retries",
        "--distance-memo-entries", "--domain", "--help", "--jobs", "--k",
        "--min-surviving-fraction", "--no-artifact-cache", "--no-recovery",
        "--records", "--report", "--seed", "--show", "--stage-timeout",
        "--top-m", "-h",
    },
    "search": {
        "--cache-dir", "--chaos-artifact-corrupt-rate",
        "--chaos-chunk-error-rate", "--chaos-page-failure-rate",
        "--chaos-seed", "--chaos-worker-crash-rate", "--chunk-retries",
        "--distance-memo-entries", "--domains", "--help", "--jobs", "--k",
        "--min-surviving-fraction", "--no-artifact-cache", "--no-recovery",
        "--query", "--records", "--report", "--seed", "--stage-timeout",
        "--top-k", "--top-m", "-h",
    },
}

#: The subcommands that build a config and run the pipeline.
COMPUTING = ("probe", "extract", "run", "fleet", "crawl", "demo", "search")

#: The arguments a subcommand cannot parse without.
REQUIRED = {
    "extract": ["--pages", "pages.jsonl"],
    "fleet": ["--sites", "music:2"],
    "search": ["--query", "q"],
}

#: A non-default value for each flag that sets a field: the tokens
#: after the option, and the value the field then holds.
FIELD_VALUES = {
    "--jobs": (["3"], 3),
    "--cache-dir": (["store"], "store"),
    "--no-artifact-cache": ([], "off"),
    "--no-recovery": ([], "off"),
    "--chunk-retries": (["5"], 5),
    "--stage-timeout": (["probe=7"], StageTimeouts(probe=7.0)),
    "--min-surviving-fraction": (["0.25"], 0.25),
    "--distance-memo-entries": (["9"], 9),
    "--chaos-seed": (["7"], 7),
    "--chaos-worker-crash-rate": (["0.2"], 0.2),
    "--chaos-chunk-error-rate": (["0.2"], 0.2),
    "--chaos-artifact-corrupt-rate": (["0.2"], 0.2),
    "--chaos-page-failure-rate": (["0.2"], 0.2),
    "--k": (["4"], 4),
    "--top-m": (["3"], 3),
    "--rate": (["25"], 25.0),
    "--fault-latency-ms": (["5"], 0.005),
    "--fault-error-rate": (["0.3"], 0.3),
    "--fault-throttle-rate": (["0.1"], 0.1),
    "--incremental-mode": (["refit"], "refit"),
    "--drift-threshold": (["0.5"], 0.5),
    "--max-sites": (["2"], 2),
    "--max-pages": (["50"], 50),
    "--batch-size": (["4"], 4),
    "--max-depth": (["3"], 3),
    "--burst": (["5"], 5),
    "--exclude": (["/search"], ("/search",)),
    "--max-pages-per-run": (["10"], 10),
    "--shard-pages": (["3"], 3),
    "--transport-connect-timeout": (["2.5"], 2.5),
    "--transport-read-timeout": (["1.5"], 1.5),
    "--transport-max-redirects": (["2"], 2),
    "--transport-max-bytes": (["1000"], 1000),
    "--no-robots": ([], False),
    "--breaker-failures": (["3"], 3),
    "--breaker-cooldown": (["6"], 6),
}


def _subparsers() -> dict:
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _parse(command: str, *argv: str) -> argparse.Namespace:
    return build_parser().parse_args([command, *REQUIRED.get(command, []), *argv])


def _replaced(obj, path: str, value):
    """``obj`` with the field at dotted ``path`` set to ``value``; a
    plan without source faults gets a default :class:`FaultSpec`."""
    name, _, rest = path.partition(".")
    if rest:
        inner = getattr(obj, name)
        value = _replaced(FaultSpec() if inner is None else inner, rest, value)
    return dataclasses.replace(obj, **{name: value})


class TestFlagFields:
    """Every flag that configures the pipeline names its field as its
    dest (a ThorConfig path, or a ``fault_plan.`` one) and, unset,
    leaves the field at its dataclass default."""

    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        # A command that wrongly accepted a value would write its
        # default --out file into the working directory.
        monkeypatch.chdir(tmp_path)

    def test_option_strings_are_unchanged(self):
        assert {
            name: {s for a in sub._actions for s in a.option_strings}
            for name, sub in _subparsers().items()
        } == OPTION_STRINGS

    @pytest.mark.parametrize("command", COMPUTING)
    def test_no_flags_is_the_seeded_default(self, command):
        args = _parse(command)
        assert _thor_config(args) == ThorConfig(seed=0)
        assert _fault_plan(args) is None

    @pytest.mark.parametrize("command", COMPUTING)
    def test_each_field_flag_sets_exactly_its_field(self, command):
        actions = [a for a in _subparsers()[command]._actions if "." in a.dest]
        assert actions
        for action in actions:
            option = action.option_strings[0]
            tokens, value = FIELD_VALUES[option]
            if action.dest.startswith(_PLAN):
                # Beside a page-fault rate (overridden when it is the flag
                # under test), so that the plan is not None.
                base = FaultPlan(seed=0, page_failure_rate=0.5)
                args = _parse(
                    command, "--chaos-page-failure-rate", "0.5", option, *tokens
                )
                expected = _replaced(base, action.dest[len(_PLAN):], value)
                assert expected != base, option
                assert _fault_plan(args) == expected, option
                assert _thor_config(args) == ThorConfig(seed=0), option
            else:
                base = ThorConfig(seed=0)
                args = _parse(command, option, *tokens)
                expected = _replaced(base, action.dest, value)
                assert expected != base, option
                assert _thor_config(args) == expected, option
                assert _fault_plan(args) is None, option

    def test_fleet_jobs_are_sites_in_flight(self):
        config = _thor_config(_parse("fleet", "--jobs", "3"))
        assert config.fleet.site_jobs == 3
        assert config.execution.n_jobs == 1  # each site fetches serially

    def test_plan_seed_and_zero_rates(self):
        # The plan is seeded from --seed unless --chaos-seed; source
        # faults included. Zero rates ask for no fault.
        args = _parse("probe", "--seed", "3", "--fault-error-rate", "0.3")
        assert _fault_plan(args).seed == 3
        args = _parse("probe", "--seed", "3", "--chaos-seed", "4",
                      "--fault-error-rate", "0.3")
        assert _fault_plan(args).seed == 4
        for argv in (["--chaos-seed", "4"], ["--fault-error-rate", "0"],
                     ["--chaos-worker-crash-rate", "0"]):
            assert _fault_plan(_parse("probe", *argv)) is None

    @pytest.mark.parametrize("command", COMPUTING)
    def test_rejected_value_exits_2(self, command, capsys):
        assert main([command, *REQUIRED.get(command, []), "--jobs", "-1"]) == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [("run", "--k"), ("run", "--top-m"), ("probe", "--rate"),
         ("crawl", "--rate")],
    )
    def test_zero_is_passed_through_and_refused(self, command, option, capsys):
        assert main([command, option, "0"]) == 2
        assert "got 0" in capsys.readouterr().err

    def test_rejected_plan_value_exits_2(self, capsys):
        assert main(["run", "--chaos-page-failure-rate", "2"]) == 2
        assert main(["probe", "--fault-latency-ms", "-5"]) == 2
        err = capsys.readouterr().err
        assert "page_failure_rate must be in [0, 1]" in err
        assert "latency_s must be >= 0" in err


class TestArtifactsGc:
    def _store(self, tmp_path):
        from repro.artifacts import KIND_PAGES, ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        store.put_json(KIND_PAGES, "ab" * 32, {"pad": "x" * 64})
        store.flush_stats()
        return store.root

    def test_reports_a_store(self, tmp_path, capsys):
        root = self._store(tmp_path)
        assert main(["artifacts-gc", "--cache-dir", str(root)]) == 0
        assert "gc: removed 0 of 1 entries" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", ["--max-bytes", "--max-age-days"])
    def test_negative_bound_exits_2(self, tmp_path, bound, capsys):
        from repro.artifacts.gc import iter_entries

        root = self._store(tmp_path)
        assert main(["artifacts-gc", "--cache-dir", str(root), bound, "-1"]) == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert len(list(iter_entries(root))) == 1

    def test_directory_without_ledger_is_refused(self, tmp_path, capsys):
        # A checkout is no store: GC must not delete its .json files.
        (tmp_path / "BENCHMARK.json").write_text("{}")
        argv = ["artifacts-gc", "--cache-dir", str(tmp_path), "--max-bytes", "0"]
        assert main(argv) == 1
        assert f"no artifact store at {tmp_path}" in capsys.readouterr().err
        assert (tmp_path / "BENCHMARK.json").exists()

    def test_missing_directory_is_refused(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["artifacts-gc", "--cache-dir", str(missing)]) == 1
        assert f"no artifact store at {missing}" in capsys.readouterr().err


class TestCommands:
    def test_probe_then_extract(self, tmp_path, capsys):
        pages = tmp_path / "pages.jsonl"
        out = tmp_path / "result.json"
        assert main(
            ["probe", "--domain", "music", "--seed", "3",
             "--out", str(pages)]
        ) == 0
        assert pages.exists()
        assert main(
            ["extract", "--pages", str(pages), "--seed", "3",
             "--out", str(out)]
        ) == 0
        record = json.loads(out.read_text())
        assert record["pages"] == 110
        assert record["pagelets"]
        output = capsys.readouterr().out
        assert "QA-Pagelets" in output

    def test_probe_concurrent_with_report_and_faults(self, tmp_path, capsys):
        pages = tmp_path / "pages.jsonl"
        assert main(
            ["probe", "--domain", "music", "--seed", "3", "--jobs", "4",
             "--records", "40", "--fault-error-rate", "0.2",
             "--probe-report", "--out", str(pages)]
        ) == 0
        assert pages.exists()
        output = capsys.readouterr().out
        assert "Probe report" in output
        assert "concurrency: 4" in output

    def test_extract_empty_cache_fails(self, tmp_path, capsys):
        pages = tmp_path / "empty.jsonl"
        pages.write_text("")
        assert main(["extract", "--pages", str(pages)]) == 1

    def test_demo_prints_objects(self, capsys):
        assert main(["demo", "--domain", "jobs", "--seed", "5",
                     "--show", "1"]) == 0
        output = capsys.readouterr().out
        assert "pagelet=" in output

    def test_search_command(self, capsys):
        assert main(
            ["search", "--domains", "library", "--query", "history",
             "--seed", "6"]
        ) == 0
        output = capsys.readouterr().out
        assert "registered" in output

    # 90% of the pages fail at the source: the quarantine scan keeps
    # 13 of 110 and refuses to extract a template from them.
    CHAOS = ["--seed", "3", "--records", "30", "--chaos-page-failure-rate", "0.9"]

    @pytest.mark.parametrize(
        "command",
        [
            ["demo", "--domain", "music"],
            ["search", "--domains", "music", "--query", "love"],
            ["run", "--domain", "music", "--no-artifact-cache"],
        ],
        ids=["demo", "search", "run"],
    )
    def test_chaos_pipeline_failure_is_a_message(self, command, tmp_path, capsys):
        out = ["--out", str(tmp_path / "r.json")] if command[0] == "run" else []
        assert main([*command, *out, *self.CHAOS]) == 1
        captured = capsys.readouterr()
        assert "only 13/110 pages survived the quarantine scan" in captured.err
        assert "Traceback" not in captured.err
        assert "pagelets" not in captured.out

    def test_checkpointed_run_without_store_exits_2(self, capsys):
        assert main(["run", "--run-id", "nightly", "--no-artifact-cache"]) == 2
        assert "need a persistent artifact store" in capsys.readouterr().err
