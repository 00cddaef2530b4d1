"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import _ESTIMATOR_FLAGS, _build_parser, _estimator_config, main
from repro.online import EstimatorConfig, estimator_config_keys

#: Every estimator flag of stream/serve/route, with the EstimatorConfig
#: field it sets and a valid non-default value.
ESTIMATOR_FLAG_VALUES = {
    "--step": ("step", 0.5),
    "--iterations": ("stem_iterations", 7),
    "--min-observed": ("min_observed_tasks", 2),
    "--shards": ("shards", 2),
    "--shard-workers": ("shard_workers", 2),
    "--kernel": ("kernel", "native"),
    "--threads": ("threads", 2),
    "--worker-retries": ("worker_retries", 3),
    "--particles": ("n_particles", 5),
    "--ess-threshold": ("ess_threshold", 0.3),
    "--rejuvenation-sweeps": ("rejuvenation_sweeps", 2),
}

#: The field that is deliberately not an estimator flag: the window is
#: set per command.
NOT_FLAGS = {"window"}

#: Minimal valid argument prefixes of the three estimator subcommands.
ESTIMATOR_COMMANDS = {
    "stream": ["stream", "trace.jsonl"],
    "serve": ["serve", "--queues", "3", "--window", "1"],
    "route": ["route", "--queues", "3", "--window", "1"],
}


class TestSimulate:
    def test_three_tier_round_trip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main([
            "simulate", "--topology", "three-tier", "--tasks", "50",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "wrote 200 events" in captured

    def test_tandem(self, tmp_path, capsys):
        out = tmp_path / "tandem.jsonl"
        code = main([
            "simulate", "--topology", "tandem", "--tasks", "30",
            "--servers", "1", "2", "--out", str(out),
        ])
        assert code == 0
        assert "q1" in capsys.readouterr().out

    def test_webapp(self, tmp_path, capsys):
        out = tmp_path / "webapp.jsonl"
        code = main([
            "simulate", "--topology", "webapp", "--tasks", "60", "--out", str(out),
        ])
        assert code == 0
        assert "network" in capsys.readouterr().out


class TestInfer:
    def test_infer_pipeline(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "80",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "25",
            "--seed", "0",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "estimated arrival rate" in text
        assert "bottleneck ranking" in text
        assert "verdict" in text

    def test_infer_sharded(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "80",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "20",
            "--seed", "0", "--shards", "2",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "estimated arrival rate" in text
        assert "bottleneck ranking" in text

    def test_infer_rejects_bad_shards(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "20",
            "--servers", "1", "2", "--out", str(out),
        ])
        with pytest.raises(SystemExit):
            main(["infer", str(out), "--shards", "0"])
        with pytest.raises(SystemExit, match="array kernel"):
            main(["infer", str(out), "--shards", "2", "--kernel", "object"])
        with pytest.raises(SystemExit, match="--threads"):
            main(["infer", str(out), "--threads", "0"])
        # Counts the library rejects exit naming the flag.
        for extra, flag in (
            (["--chains", "0"], "--chains"),
            (["--shards", "0"], "--shards"),
            (["--workers", "0"], "--workers"),
            (["--workers", "0", "--chains", "2"], "--workers"),
            (["--workers", "0", "--shards", "2"], "--workers"),
        ):
            with pytest.raises(SystemExit, match=flag):
                main(["infer", str(out), *extra])

    def test_infer_output_is_independent_of_workers(self, tmp_path, capsys):
        """One --workers hosts the E-step and posterior chains; any count
        prints the same report as the in-process run."""
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "60",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        args = ["infer", str(out), "--observe", "0.3", "--iterations", "6",
                "--chains", "2"]
        reports = []
        for extra in ([], ["--workers", "2"]):
            capsys.readouterr()
            assert main([*args, *extra]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_infer_threads_and_native_round_trip(self, tmp_path, capsys):
        """--threads and --kernel native reach the sampler through the CLI
        (pre-fix, no command exposed GibbsSampler's threads at all)."""
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "60",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        baseline = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "10",
            "--seed", "0",
        ])
        plain = capsys.readouterr().out
        code = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "10",
            "--seed", "0", "--kernel", "array", "--threads", "2",
        ])
        threaded = capsys.readouterr().out
        assert baseline == 0 and code == 0
        # Same seed, bitwise the same estimates: threads never change a draw.
        line = next(l for l in plain.splitlines() if "arrival rate" in l)
        assert line in threaded
        # The native lowering is accepted end to end (compiled when numba
        # is present, the array fallback otherwise).
        code = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "10",
            "--seed", "0", "--kernel", "native", "--threads", "2",
        ])
        assert code == 0
        assert "arrival rate" in capsys.readouterr().out

    def test_infer_multichain(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "60",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "15",
            "--seed", "0", "--chains", "3",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "split-Rhat" in text
        assert "3 chains" in text
        assert "bottleneck ranking" in text


class TestStream:
    def test_stream_pipeline_with_warm_shard_workers(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "150",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "stream", str(out), "--observe", "0.3", "--windows", "3",
            "--iterations", "8", "--seed", "0", "--shards", "2",
            "--shard-workers", "2",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "streaming window estimates" in text
        assert "anomal" in text  # either the table or "no anomalies flagged"

    def test_stream_serial_and_single_shard_worker(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "100",
            "--servers", "1", "2", "--seed", "5", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "stream", str(out), "--observe", "0.3", "--windows", "2",
            "--iterations", "6", "--seed", "1",
        ])
        assert code == 0
        assert "win" in capsys.readouterr().out
        code = main([
            "stream", str(out), "--observe", "0.3", "--windows", "2",
            "--iterations", "6", "--seed", "1", "--shards", "2",
            "--shard-workers", "1",
        ])
        assert code == 0
        assert "win" in capsys.readouterr().out


class TestServeIngest:
    def _free_port(self):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return port

    def test_serve_and_ingest_round_trip(self, tmp_path, capsys):
        import threading
        import time

        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "120",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        port = self._free_port()
        codes = {}

        def serve():
            codes["serve"] = main([
                "serve", "--queues", "3", "--window", "12",
                "--port", str(port), "--authkey", "test-key",
                "--iterations", "6", "--seed", "0",
            ])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        time.sleep(0.3)
        codes["ingest"] = main([
            "ingest", str(out), "--connect", f"127.0.0.1:{port}",
            "--authkey", "test-key", "--observe", "0.3",
            "--wait", "--shutdown",
        ])
        thread.join(30.0)
        assert not thread.is_alive()
        assert codes == {"serve": 0, "ingest": 0}
        text = capsys.readouterr().out
        assert "listening on" in text
        assert "published window estimates" in text
        assert "shutdown requested" in text

    def test_serve_validation(self):
        with pytest.raises(SystemExit, match="--queues and --window"):
            main(["serve"])
        with pytest.raises(SystemExit, match="window must be positive"):
            main(["serve", "--queues", "3", "--window", "0"])
        with pytest.raises(SystemExit, match="--shard-workers requires"):
            main(["serve", "--queues", "3", "--window", "1",
                  "--shard-workers", "2"])
        # A value EstimatorConfig rejects exits naming its flag.
        for extra, flag in (
            (["--threads", "0"], "--threads"),
            (["--shards", "2", "--kernel", "object"], "--kernel"),
            (["--ess-threshold", "2"], "--ess-threshold"),
        ):
            with pytest.raises(SystemExit, match=flag):
                main(["serve", "--queues", "3", "--window", "1", *extra])
        with pytest.raises(SystemExit, match="--restore resumes"):
            main(["serve", "--restore", "x.ckpt", "--window", "1"])
        # Every estimator/stream flag is frozen by the checkpoint; passing
        # one must be an error, not a silent ignore.
        with pytest.raises(SystemExit, match="--shards"):
            main(["serve", "--restore", "x.ckpt", "--shards", "4"])
        with pytest.raises(SystemExit, match="--lateness"):
            main(["serve", "--restore", "x.ckpt", "--lateness", "5"])
        with pytest.raises(SystemExit, match="--kernel"):
            main(["serve", "--restore", "x.ckpt", "--kernel", "native"])
        with pytest.raises(SystemExit, match="--threads"):
            main(["serve", "--restore", "x.ckpt", "--threads", "2"])
        with pytest.raises(SystemExit, match="cannot restore"):
            main(["serve", "--restore", "/nonexistent/x.ckpt"])

    def test_ingest_validation(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "20",
            "--servers", "1", "2", "--out", str(out),
        ])
        with pytest.raises(SystemExit, match="host:port"):
            main(["ingest", str(out), "--connect", "nonsense"])
        with pytest.raises(SystemExit, match="--speedup"):
            main(["ingest", str(out), "--speedup", "-1"])
        with pytest.raises(SystemExit, match="--batch"):
            main(["ingest", str(out), "--batch", "0"])
        with pytest.raises(SystemExit, match="cannot connect"):
            main(["ingest", str(out),
                  "--connect", f"127.0.0.1:{self._free_port()}"])

    def test_top_one_shot(self, tmp_path, capsys):
        import threading
        import time

        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "120",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        port = self._free_port()
        codes = {}

        def serve():
            codes["serve"] = main([
                "serve", "--queues", "3", "--window", "12",
                "--port", str(port), "--authkey", "test-key",
                "--iterations", "6", "--seed", "0",
            ])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        time.sleep(0.3)
        codes["ingest"] = main([
            "ingest", str(out), "--connect", f"127.0.0.1:{port}",
            "--authkey", "test-key", "--observe", "0.3", "--wait",
        ])
        capsys.readouterr()
        codes["top"] = main([
            "top", "--connect", f"127.0.0.1:{port}",
            "--authkey", "test-key", "--once",
        ])
        frame = capsys.readouterr().out
        assert codes["top"] == 0
        assert "repro top" in frame
        assert "arrival λ" in frame
        assert "phase latency" in frame
        assert "ingest  admitted" in frame
        # Shut the server down so the serve thread exits cleanly.
        from repro.live import LiveClient

        with LiveClient(("127.0.0.1", port), authkey=b"test-key") as client:
            client.shutdown()
        thread.join(30.0)
        assert not thread.is_alive()

    def test_top_validation(self):
        with pytest.raises(SystemExit, match="host:port"):
            main(["top", "--connect", "nonsense", "--once"])
        with pytest.raises(SystemExit, match="--interval"):
            main(["top", "--interval", "0", "--once"])
        with pytest.raises(SystemExit, match="cannot connect"):
            main(["top", "--connect", f"127.0.0.1:{self._free_port()}",
                  "--once"])


class TestEstimatorFlagParity:
    """The stream/serve/route flags are derived from EstimatorConfig."""

    def test_every_field_is_a_flag_or_a_named_exclusion(self):
        fields = {field for field, _ in ESTIMATOR_FLAG_VALUES.values()}
        assert fields | NOT_FLAGS == set(estimator_config_keys())
        assert not fields & NOT_FLAGS
        assert {row[0] for row in _ESTIMATOR_FLAGS} == set(ESTIMATOR_FLAG_VALUES)

    @pytest.mark.parametrize("command", sorted(ESTIMATOR_COMMANDS))
    def test_each_flag_sets_its_field(self, command):
        argv = list(ESTIMATOR_COMMANDS[command])
        for flag, (_, value) in ESTIMATOR_FLAG_VALUES.items():
            argv += [flag, str(value)]
        args = _build_parser().parse_args(argv)
        expected = EstimatorConfig(
            window=1.0,
            **{field: value for field, value in ESTIMATOR_FLAG_VALUES.values()},
        )
        assert _estimator_config(args, 1.0) == expected

    @pytest.mark.parametrize("command", sorted(ESTIMATOR_COMMANDS))
    def test_defaults_build_the_documented_config(self, command):
        args = _build_parser().parse_args(ESTIMATOR_COMMANDS[command])
        assert _estimator_config(args, 2.0) == EstimatorConfig(
            window=2.0, stem_iterations=30
        )

    def test_serve_restore_rejects_every_estimator_flag(self):
        for flag, (_, value) in ESTIMATOR_FLAG_VALUES.items():
            with pytest.raises(SystemExit, match=re.escape(flag)):
                main(["serve", "--restore", "x.ckpt", flag, str(value)])


class TestArgumentErrors:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig9"])

    def test_stream_rejects_bad_shards(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "30",
            "--servers", "1", "2", "--out", str(out),
        ])
        with pytest.raises(SystemExit):
            main(["stream", str(out), "--shards", "0"])
        with pytest.raises(SystemExit):
            main(["stream", str(out), "--shards", "2", "--shard-workers", "0"])
        with pytest.raises(SystemExit):
            main(["stream", str(out), "--window", "0"])
        with pytest.raises(SystemExit):
            main(["stream", str(out), "--step", "-1"])
        with pytest.raises(SystemExit):
            main(["stream", str(out), "--windows", "0"])
        with pytest.raises(SystemExit):  # transport without workers: no-op combo
            main(["stream", str(out), "--transport", "socket"])
