"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, package_version

FAST = ["--population", "400", "--users", "300", "--days", "10", "--seed", "13"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_id_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E99"])

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.dataset == "korean"
        assert args.seed == 7


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {package_version()}"

    def test_version_matches_pyproject(self):
        """The version comes from package metadata, not a drifting copy."""
        import tomllib
        from pathlib import Path

        import repro.cli as cli_module

        pyproject = Path(cli_module.__file__).resolve().parents[2] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            declared = tomllib.load(handle)["project"]["version"]
        assert package_version() == declared


class TestUnknownCommand:
    def test_unknown_subcommand_exits_2_with_one_line_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "invalid choice" in lines[0]
        assert "repro --help" in lines[0]
        assert "usage:" not in err

    def test_unknown_option_exits_2_with_one_line_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "repro --help" in lines[0]


class TestStudy:
    def test_korean_study_output(self, capsys):
        assert main(["study", "--dataset", "korean", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Refinement funnel" in out
        assert "Number of users in each group" in out
        assert "reliability weight factors" in out

    def test_ladygaga_study_output(self, capsys):
        assert main(["study", "--dataset", "ladygaga", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Refinement funnel" in out

    def test_study_metrics_flag_prints_trace(self, capsys):
        assert main(["study", "--dataset", "korean", "--metrics", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Run trace — korean" in out
        assert "geocode.requests" in out
        assert "funnel.study_users" in out
        assert "reverse_geocode" in out

    @pytest.mark.parametrize(
        ("dataset", "cells", "latency"),
        [("korean", 103, "5.15"), ("ladygaga", 76, "3.8")],
    )
    def test_study_metrics_geocode_lines_pinned(self, capsys, dataset, cells, latency):
        """The ``geocode.*`` accounting lines, pinned: the PlaceFinder
        backend's path-only lookups must account exactly as the XML
        round trip they replaced."""
        assert main(["study", "--dataset", dataset, "--metrics", *FAST]) == 0
        lines = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("geocode.")
        ]
        expected = {
            "cache_hits": 0, "failures_injected": 0, "no_result": 0,
            "requests": cells, "retries": 0, "retry_exhausted": 0,
            "simulated_latency_s": latency,
            "tiers.backend.lookups": cells, "tiers.backend.no_result": 0,
            "tiers.backend.retries": 0, "tiers.backend.retry_exhausted": 0,
            "tiers.cache_size": cells, "tiers.client_cache_size": cells,
            "tiers.disk.hits": 0, "tiers.disk.misses": 0,
            "tiers.l1.evictions": 0, "tiers.l1.hits": 0,
            "tiers.l1.misses": cells, "tiers.l1_size": cells,
        }
        assert lines == [f"geocode.{key} = {value}" for key, value in expected.items()]

    def test_study_metrics_exposes_geocode_tiers(self, capsys):
        """`repro study --metrics` surfaces the geocode service's tier
        hit/miss counters and cache sizes (snapshot keys + summary line)."""
        assert main(["study", "--dataset", "korean", "--metrics", *FAST]) == 0
        out = capsys.readouterr().out
        for key in (
            "geocode.tiers.l1.hits",
            "geocode.tiers.l1.misses",
            "geocode.tiers.disk.hits",
            "geocode.tiers.disk.misses",
            "geocode.tiers.backend.lookups",
            "geocode.tiers.cache_size",
            "geocode.tiers.client_cache_size",
        ):
            assert key in out
        assert "geocode tiers: l1" in out

    def test_study_cache_dir_warm_run_matches(self, capsys, tmp_path):
        """A second run over a shared --cache-dir reproduces the study
        byte for byte from the warm disk tier."""
        cache = str(tmp_path / "geocache")
        assert main(["study", "--dataset", "korean", "--cache-dir", cache, *FAST]) == 0
        cold = capsys.readouterr().out
        assert main(["study", "--dataset", "korean", "--cache-dir", cache, *FAST]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_study_sharded_matches_serial(self, capsys):
        assert main(["study", "--dataset", "korean", *FAST]) == 0
        serial = capsys.readouterr().out
        assert main(["study", "--dataset", "korean", "--shards", "4", *FAST]) == 0
        sharded = capsys.readouterr().out
        assert sharded == serial

    def test_study_process_backend_matches_serial(self, capsys):
        assert main(["study", "--dataset", "korean", *FAST]) == 0
        serial = capsys.readouterr().out
        assert main(["study", "--dataset", "korean", "--backend", "process",
                     "--shards", "4", *FAST]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    @pytest.mark.parametrize("prefix", ["", "no-"], ids=["on", "off"])
    def test_removed_columnar_flag_rejected(self, capsys, prefix):
        """Grouping has one path; both spellings of the removed switch
        are unknown options."""
        flag = f"--{prefix}columnar"
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--dataset", "korean", flag, *FAST])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize("option", ["--save", "--cache-dir"])
    def test_unwritable_output_path_fails_cleanly(self, capsys, tmp_path, option):
        """An output path below a regular file is one error line and a
        nonzero exit, never a traceback."""
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        target = blocker / "sub" / ("study.json" if option == "--save" else "cache")
        code = main(["study", "--dataset", "korean", option, str(target), *FAST])
        assert code != 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        assert str(blocker) in err
        assert "Traceback" not in err

    def test_shard_failure_exits_code_4(self, capsys, monkeypatch):
        """A worker exception surfaces as exit code 4 with the shard and
        item range named — never a traceback."""
        from repro.errors import ShardExecutionError

        def boom(*args, **kwargs):
            raise ShardExecutionError(2, 4, (6, 9), ValueError("bad row"))

        monkeypatch.setattr("repro.cli.run_study", boom)
        code = main(["study", "--dataset", "korean", *FAST])
        assert code == 4
        err = capsys.readouterr().err
        assert "shard 3/4" in err
        assert "[6:9)" in err
        assert "bad row" in err
        assert "Traceback" not in err


class TestEngineTrace:
    def test_trace_output(self, capsys):
        assert main(["engine", "trace", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Run trace — korean" in out
        assert "per-stage spans:" in out
        for stage in ("refine", "profile_geocode", "reverse_geocode",
                      "grouping", "statistics"):
            assert stage in out
        assert "crawl.users" in out
        assert "geocode.requests" in out
        assert "grouping.users" in out

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine"])


class TestDataset:
    def test_writes_jsonl(self, capsys, tmp_path):
        out_dir = tmp_path / "data"
        code = main(["dataset", "--dataset", "korean", "--out", str(out_dir), *FAST])
        assert code == 0
        assert (out_dir / "korean_users.jsonl").exists()
        assert (out_dir / "korean_tweets.jsonl").exists()
        out = capsys.readouterr().out
        assert "wrote 300 users" in out


class TestStudySaveAndReport:
    def test_save_then_report(self, capsys, tmp_path):
        saved = tmp_path / "study.json"
        code = main(["study", "--dataset", "korean", "--save", str(saved), *FAST])
        assert code == 0
        assert saved.exists()
        capsys.readouterr()

        code = main(["report", "--study", str(saved)])
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded study 'korean'" in out
        assert "bootstrap confidence intervals" in out
        assert "Split-half stability" in out
        # At this tiny scale the regional table may fall below min_users;
        # either the table or the explicit notice must be printed.
        assert "by profile region" in out or "too few users per region" in out

    def test_report_missing_file_fails_cleanly(self, capsys, tmp_path):
        code = main(["report", "--study", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExperiment:
    def test_renders_artefact(self, capsys, small_ctx):
        assert main(["experiment", "E2", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Number of users in each group" in out


class TestLocalize:
    def test_localization_table(self, capsys):
        code = main(
            ["localize", "--population", "900", "--users", "700", "--days", "20",
             "--seed", "13", "--gps-rate", "0.3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimator x weighting scheme" in out
        assert "learned weight factors" in out


class TestServe:
    def test_serve_requires_snapshot(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve"])
        assert excinfo.value.code == 2

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--snapshot", "s.json"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.rate == 0.0
        assert args.gazetteer == "korean"

    def test_serve_loads_snapshot_and_prints_banner(
        self, capsys, tmp_path, monkeypatch
    ):
        """`repro serve` loads the saved study, binds, prints the banner,
        and exits cleanly once the server thread is done."""
        from repro.serving import AsyncServerThread

        saved = tmp_path / "study.json"
        assert main(["study", "--dataset", "korean",
                     "--save", str(saved), *FAST]) == 0
        capsys.readouterr()
        monkeypatch.setattr(AsyncServerThread, "join", lambda self: None)
        code = main(["serve", "--snapshot", str(saved), "--port", "0",
                     "--rate", "100", "--burst", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 'korean'" in out
        assert "snapshot version" in out
        assert "/lookup" in out and "/admin/reload" in out
        assert "admission: 100.0/s sustained, burst 5" in out
        assert "reload: POST /admin/reload" in out

    def test_transport_flags_accept_only_asyncio(self, capsys):
        """`--server`/`--replica-server` stay for existing command lines;
        asyncio is their only value."""
        parser = build_parser()
        assert parser.parse_args(
            ["serve", "--snapshot", "s.json", "--server", "asyncio"]
        ).server == "asyncio"
        assert parser.parse_args(
            ["fleet", "run", "--snapshot", "s.json",
             "--server", "asyncio", "--replica-server", "asyncio"]
        ).replica_server == "asyncio"
        for argv in (
            ["serve", "--snapshot", "s.json", "--server", "thread"],
            ["live", "--server", "thread"],
            ["fleet", "run", "--snapshot", "s.json", "--replica-server", "thread"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "invalid choice: 'thread'" in err
            assert err.count("\n") == 1

    def test_serve_missing_snapshot_file_fails_cleanly(self, capsys, tmp_path):
        # Unusable on-disk state at boot is the `stream --resume`
        # convention: exit 3, one line, no traceback.
        code = main(["serve", "--snapshot", str(tmp_path / "absent.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error:" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_serve_corrupt_snapshot_fails_cleanly(self, capsys, tmp_path):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{ this is not a study", encoding="utf-8")
        code = main(["serve", "--snapshot", str(corrupt)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: cannot serve:" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_serve_truncated_snapshot_fails_cleanly(self, capsys, tmp_path):
        """A study file cut mid-write (half its bytes) must fail exactly
        like any other unusable boot state: exit 3, one line."""
        saved = tmp_path / "study.json"
        assert main(["study", "--dataset", "korean",
                     "--save", str(saved), *FAST]) == 0
        capsys.readouterr()
        text = saved.read_text(encoding="utf-8")
        saved.write_text(text[: len(text) // 2], encoding="utf-8")
        code = main(["serve", "--snapshot", str(saved)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: cannot serve:" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestLive:
    def test_live_defaults(self):
        args = build_parser().parse_args(["live"])
        assert args.dataset == "ladygaga"
        assert args.cadence == 8
        assert args.cadence_seconds == 0.0
        assert args.on_exhausted == "serve"
        assert args.port == 8080

    def test_live_streams_swaps_and_exits(self, capsys, tmp_path):
        """`repro live --on-exhausted exit` pumps the whole firehose,
        publishes snapshots on cadence, and reports the final generation."""
        code = main(
            ["live", "--dataset", "korean", "--port", "0",
             "--state-dir", str(tmp_path / "state"),
             "--cadence", "50", "--on-exhausted", "exit", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 'korean'" in out
        assert "live: cadence 50 batches" in out
        assert "stream exhausted at offset" in out
        assert "snapshot swaps" in out
        assert "served version:" in out

    def test_live_resume_over_bad_state_fails_cleanly(self, capsys, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "checkpoints.jsonl").write_text(
            "not a checkpoint\n", encoding="utf-8"
        )
        code = main(
            ["live", "--dataset", "korean", "--port", "0",
             "--state-dir", str(state), "--resume",
             "--on-exhausted", "exit", *FAST]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error: cannot resume:" in err
        assert "Traceback" not in err


class _StubSupervisor:
    """Stands in for ``ReplicaSupervisor`` so no subprocess is spawned."""

    def __init__(self, snapshot_path, replicas, targets, boot_error=None, **kwargs):
        self.boot_error = boot_error
        self.stopped = False

    def start(self):
        if self.boot_error is not None:
            raise self.boot_error

    def stop(self):
        self.stopped = True

    def handles(self):
        return []


class TestBindFailures:
    """A busy port is one ``error:`` line and exit 1, never a traceback;
    ``fleet run`` also stops its replicas."""

    @pytest.fixture
    def busy_port(self):
        import socket

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            yield holder.getsockname()[1]

    def _assert_bind_error(self, capsys, code, port):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_serve_busy_port(self, capsys, tmp_path, busy_port):
        saved = tmp_path / "study.json"
        assert main(["study", "--dataset", "korean",
                     "--save", str(saved), *FAST]) == 0
        capsys.readouterr()
        code = main(["serve", "--snapshot", str(saved), "--port", str(busy_port)])
        self._assert_bind_error(capsys, code, busy_port)

    def test_live_busy_port(self, capsys, tmp_path, busy_port):
        code = main(
            ["live", "--dataset", "korean", "--port", str(busy_port),
             "--state-dir", str(tmp_path / "state"),
             "--on-exhausted", "exit", *FAST]
        )
        self._assert_bind_error(capsys, code, busy_port)

    def _stub_supervisors(self, monkeypatch, boot_error=None):
        import repro.cli as cli_module

        built: list[_StubSupervisor] = []

        def factory(*args, **kwargs):
            built.append(_StubSupervisor(*args, boot_error=boot_error, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli_module, "ReplicaSupervisor", factory)
        return built

    def test_fleet_run_busy_port_stops_the_replicas(
        self, capsys, monkeypatch, busy_port
    ):
        built = self._stub_supervisors(monkeypatch)
        code = main(["fleet", "run", "--snapshot", "unused.json",
                     "--replicas", "2", "--port", str(busy_port)])
        self._assert_bind_error(capsys, code, busy_port)
        assert [supervisor.stopped for supervisor in built] == [True]

    def test_fleet_run_interrupted_during_boot_stops_the_replicas(
        self, capsys, monkeypatch
    ):
        built = self._stub_supervisors(monkeypatch, boot_error=KeyboardInterrupt())
        code = main(["fleet", "run", "--snapshot", "unused.json", "--port", "0"])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert [supervisor.stopped for supervisor in built] == [True]


class TestStream:
    def test_stream_exhausts_and_reports(self, capsys, tmp_path):
        code = main(
            ["stream", "--dataset", "korean",
             "--state-dir", str(tmp_path / "state"), *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stream exhausted at offset" in out
        assert "(0 dropped by backpressure)" in out
        assert "state digest:" in out
        assert "Number of users in each group" in out

    def test_stream_report_matches_batch_study(self, capsys, tmp_path):
        """The end-of-stream report sections are the batch study's, verbatim."""
        assert main(["study", "--dataset", "korean", *FAST]) == 0
        study_out = capsys.readouterr().out
        code = main(
            ["stream", "--dataset", "korean",
             "--state-dir", str(tmp_path / "state"), *FAST]
        )
        assert code == 0
        stream_out = capsys.readouterr().out
        # Everything after the stream header (ending at the digest line)
        # must appear verbatim in the study output.
        report = stream_out.split("…\n", 1)[1].strip()
        assert report
        assert report in study_out

    def test_stream_pause_then_resume(self, capsys, tmp_path):
        state = str(tmp_path / "state")
        code = main(
            ["stream", "--dataset", "korean", "--state-dir", state,
             "--max-batches", "3", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stream paused at offset" in out
        assert "resume with: repro stream --resume" in out
        code = main(
            ["stream", "--dataset", "korean", "--state-dir", state,
             "--resume", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resuming from checkpoint: offset" in out
        assert "stream exhausted at offset" in out

    def test_stream_metrics_flag_prints_trace(self, capsys, tmp_path):
        code = main(
            ["stream", "--dataset", "korean", "--state-dir", str(tmp_path / "s"),
             "--metrics", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stream.batch" in out
        assert "stream.queue.depth" in out
        assert "stream.checkpoint.age_batches" in out

    def test_resume_missing_checkpoint_exits_distinctly(self, capsys, tmp_path):
        """--resume with no checkpoint log: exit code 3 and a one-line
        actionable message, no traceback."""
        code = main(
            ["stream", "--dataset", "korean",
             "--state-dir", str(tmp_path / "never-ran"), "--resume", *FAST]
        )
        assert code == 3
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "cannot resume" in lines[0]
        assert "no checkpoint log" in lines[0]
        assert "--resume" in lines[0]  # tells the operator what to do
        assert "Traceback" not in err

    def test_resume_truncated_checkpoint_exits_distinctly(self, capsys, tmp_path):
        """--resume against a checkpoint log whose only record was torn
        mid-write: exit code 3 and a one-line message, no traceback."""
        state = tmp_path / "state"
        state.mkdir()
        (state / "checkpoints.jsonl").write_text('{"offset": 12, "wal_rec')
        code = main(
            ["stream", "--dataset", "korean",
             "--state-dir", str(state), "--resume", *FAST]
        )
        assert code == 3
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "cannot resume" in lines[0]
        assert "no complete checkpoint" in lines[0]
        assert "Traceback" not in err

    def test_stream_save_writes_loadable_study(self, capsys, tmp_path):
        saved = tmp_path / "stream_study.json"
        code = main(
            ["stream", "--dataset", "korean", "--state-dir", str(tmp_path / "s"),
             "--save", str(saved), *FAST]
        )
        assert code == 0
        assert saved.exists()
        capsys.readouterr()
        assert main(["report", "--study", str(saved)]) == 0
        assert "loaded study 'korean'" in capsys.readouterr().out
