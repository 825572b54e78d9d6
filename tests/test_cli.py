"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


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
        assert args.seed == 9
        assert args.k == 3
        assert args.top_m == 1

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
        assert args.jobs == 2
        assert build_parser().parse_args(["search", "--query", "q",
                                          "--jobs", "0"]).jobs == 0

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
        assert args.jobs == 4
        assert args.rate == 50.0
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
        args = build_parser().parse_args(
            ["probe", "--fault-error-rate", "0.3",
             "--fault-latency-ms", "5", "--fault-throttle-rate", "0.1"]
        )
        assert args.fault_error_rate == 0.3
        assert args.fault_latency_ms == 5.0
        assert args.fault_throttle_rate == 0.1


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
