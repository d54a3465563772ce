"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "huge", "suite"])

    def test_defaults(self):
        args = build_parser().parse_args(["experiment", "fig2"])
        assert args.scale == "default"
        assert args.seed is None
        assert args.jobs is None

    def test_jobs_flag(self):
        args = build_parser().parse_args(["--jobs", "2", "suite"])
        assert args.jobs == 2

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_epilog_lists_every_subcommand(self):
        """The --help epilog must stay in sync with the registered commands."""
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
            and "experiment" in action.choices
        )
        for command in subparsers.choices:
            assert command in parser.epilog, (
                f"command {command!r} missing from the --help epilog"
            )

    def test_help_shows_epilog(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "lifecycle" in out
        assert "metrics" in out

    @pytest.mark.parametrize("argv", [
        ["bench"],
        ["bench-parallel"],
        ["bench-scale"],
        ["bench-serve"],
        ["--train-workers", "2", "suite"],
        ["--retrieval", "ivf", "serve-demo"],
        ["--probe-cells", "4", "serve-demo"],
    ])
    def test_retired_commands_and_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_fig2_small(self, capsys):
        assert main(["--scale", "small", "experiment", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out

    def test_table1_small(self, capsys):
        assert main(["--scale", "small", "experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "BPR (BCT only)" in out

    def test_generate(self, tmp_path, capsys):
        from repro.pipeline.merge import load_merged_corpus

        target = tmp_path / "dataset"
        assert main(["--scale", "small", "generate", str(target)]) == 0
        out = capsys.readouterr().out
        assert sorted(path.name for path in target.iterdir()) == [
            "MANIFEST.json", "books.csv", "genres.csv",
            "readings-00000.npz", "readings-00001.npz", "users.npz",
        ]
        merged = load_merged_corpus(target)
        assert (
            f"saved merged dataset to {target}: {merged.n_books} books, "
            f"{merged.n_users} users, {merged.n_readings} readings"
        ) in out
        assert main(["health", str(target)]) == 0
        assert "status: ok" in capsys.readouterr().out

    def test_output_directory(self, tmp_path, capsys):
        target = tmp_path / "results"
        assert main(
            ["--scale", "small", "--output", str(target),
             "experiment", "fig2"]
        ) == 0
        written = target / "fig2.txt"
        assert written.exists()
        assert "Fig. 2" in written.read_text(encoding="utf-8")

    def test_serve_demo(self, capsys):
        assert main(["--scale", "small", "serve-demo"]) == 0
        out = capsys.readouterr().out
        assert "mean latency" in out

    def test_gridsearch_with_jobs_matches_serial(self, capsys):
        assert main(
            ["--scale", "small", "--jobs", "2", "experiment", "gridsearch"]
        ) == 0
        parallel = capsys.readouterr().out
        assert main(
            ["--scale", "small", "experiment", "gridsearch"]
        ) == 0
        serial = capsys.readouterr().out
        assert parallel == serial
        assert "best:" in serial


class TestHealth:
    @pytest.fixture()
    def saved(self, tmp_path, tiny_dataset_dir, tiny_bpr, tiny_split):
        from repro.app.persistence import save_bpr

        save_bpr(tiny_bpr, tiny_split.train, tmp_path / "model.npz")
        return tmp_path

    def test_healthy_artefacts_exit_zero(self, saved, capsys):
        assert main(["health", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert out.count("ok    ") == 2  # the dataset dir and the model

    def test_corrupt_artefact_exit_one(self, saved, capsys):
        books = saved / "dataset" / "books.csv"
        books.write_bytes(books.read_bytes() + b"tampered\n")
        assert main(["health", str(saved)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "ChecksumMismatchError" in out
        assert "status: corrupt" in out

    def test_single_file_target(self, saved, capsys):
        assert main(["health", str(saved / "model.npz")]) == 0
        assert "status: ok" in capsys.readouterr().out

    def test_missing_path(self, tmp_path, capsys):
        assert main(["health", str(tmp_path / "nope")]) == 1
        assert "does not exist" in capsys.readouterr().out

    def test_no_artefacts_is_unknown(self, tmp_path, capsys):
        assert main(["health", str(tmp_path)]) == 1
        assert "status: unknown" in capsys.readouterr().out

    def test_generate_then_health_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "dataset"
        assert main(["--scale", "small", "generate", str(target)]) == 0
        capsys.readouterr()
        assert main(["health", str(target)]) == 0
        assert "status: ok" in capsys.readouterr().out


class TestLifecycleCommand:
    @pytest.fixture()
    def store(self, tmp_path, tiny_bpr, tiny_split):
        from repro.app.lifecycle import ModelStore

        store = ModelStore(tmp_path / "store")
        store.publish(tiny_bpr, tiny_split.train)
        store.publish(tiny_bpr, tiny_split.train)
        return store

    def test_publish_cold_then_warm(self, tmp_path, capsys):
        target = tmp_path / "store"
        assert main(
            ["--scale", "small", "lifecycle", "publish", str(target)]
        ) == 0
        assert "published v000001 (cold)" in capsys.readouterr().out
        assert main(
            ["--scale", "small", "lifecycle", "publish", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert "published v000002 (warm-started)" in out
        assert "CURRENT -> v000002" in out

    def test_list_marks_current(self, store, capsys):
        assert main(["lifecycle", "list", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "v000001" in out
        assert "v000002" in out and "<- CURRENT" in out

    def test_rollback_and_gc(self, store, capsys):
        assert main(["lifecycle", "rollback", str(store.root)]) == 0
        assert "CURRENT -> v000001" in capsys.readouterr().out
        assert main(
            ["lifecycle", "gc", str(store.root), "--keep", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "gc removed:" in out
        assert store.current_name() == "v000001"

    def test_rollback_to_specific_version(self, store, capsys):
        assert main(
            ["lifecycle", "rollback", str(store.root), "--to", "v000001"]
        ) == 0
        assert store.current_name() == "v000001"

    def test_rollback_without_earlier_version_fails(
        self, tmp_path, capsys
    ):
        assert main(["lifecycle", "rollback", str(tmp_path)]) == 1
        assert "lifecycle:" in capsys.readouterr().err

    def test_health_understands_a_store(self, store, capsys):
        assert main(["health", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "model store health report" in out
        assert "CURRENT: v000002 [ok]" in out
        assert "status: ok" in out

    def test_health_fails_on_corrupt_current(self, store, capsys):
        current = store.resolve(None)
        current.model_path.write_bytes(b"garbage")
        assert main(["health", str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "status: corrupt" in out

    def test_health_fails_on_dangling_current(self, store, capsys):
        (store.root / "CURRENT").write_text("v000099\n", encoding="utf-8")
        assert main(["health", str(store.root)]) == 1
        assert "[dangling]" in capsys.readouterr().out


class TestMetricsCommand:
    def test_writes_snapshot_and_trace(self, tmp_path, capsys):
        snapshot_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "metrics", str(snapshot_path),
            "--trace", str(trace_path), "--deterministic",
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot written" in out
        assert "stage" in out  # the per-stage timing table header
        assert "service health: ok" in out

        import json

        snapshot = json.loads(snapshot_path.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert "service.requests" in snapshot["counters"]
        lines = trace_path.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["span_id"] for line in lines)

    def test_snapshot_only(self, tmp_path, capsys):
        snapshot_path = tmp_path / "metrics.json"
        assert main(["metrics", str(snapshot_path), "--deterministic"]) == 0
        assert snapshot_path.exists()
        assert "trace" not in capsys.readouterr().out.lower()

    def test_deterministic_runs_write_identical_snapshots(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["metrics", str(first), "--deterministic"]) == 0
        assert main(["metrics", str(second), "--deterministic"]) == 0
        from tests.obs.golden import assert_golden_equal, normalize_snapshot
        import json

        assert_golden_equal(
            normalize_snapshot(json.loads(first.read_text())),
            normalize_snapshot(json.loads(second.read_text())),
        )
