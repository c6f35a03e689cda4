"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_geometry_flags(self):
        args = build_parser().parse_args(["figure1", "--b", "32", "--n", "100"])
        assert args.b == 32
        assert args.n == 100

    def test_trace_mix_flag(self):
        args = build_parser().parse_args(
            ["trace", "--mix", "1", "0", "0", "0", "--table", "chaining"]
        )
        assert args.mix == [1.0, 0.0, 0.0, 0.0]


class TestCommands:
    def test_knuth(self, capsys):
        assert main(["knuth"]) == 0
        out = capsys.readouterr().out
        assert "t_q_success" in out
        assert "overflow" in out

    def test_figure1_small(self, capsys):
        assert main(["figure1", "--b", "32", "--m", "256", "--n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "c=1 boundary" in out
        assert "*" in out  # measured points plotted

    def test_baselines_small(self, capsys):
        assert main(["baselines", "--b", "32", "--m", "256", "--n", "1200"]) == 0
        out = capsys.readouterr().out
        assert "buffered" in out
        assert "btree" in out

    def test_audit_small(self, capsys):
        assert main(["audit", "--b", "32", "--m", "600", "--n", "1200"]) == 0
        out = capsys.readouterr().out
        assert "query_floor" in out

    def test_trace_small(self, capsys):
        assert (
            main(
                [
                    "trace",
                    "--table",
                    "chaining",
                    "--b",
                    "32",
                    "--m",
                    "256",
                    "--n",
                    "500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "I/Os" in out

    def test_trace_unknown_table(self, capsys):
        assert main(["trace", "--table", "nope", "--n", "10"]) == 2


class TestServe:
    ARGS = ["serve", "--b", "32", "--m", "256", "--n", "600", "--window", "200",
            "--epoch-ops", "128"]

    def test_serve_small(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "kops" in out and "cluster I/O" in out

    def test_mix_must_sum_to_one(self, capsys):
        assert main(self.ARGS + ["--mix", "0.5", "0.4", "0.2", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "--mix must sum to 1.0" in err
        assert "Traceback" not in err

    def test_mix_must_be_non_negative(self, capsys):
        assert main(self.ARGS + ["--mix", "1.2", "-0.2", "0", "0"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_epoch_ops_must_be_positive(self, capsys):
        args = [a for a in self.ARGS if a not in ("--epoch-ops", "128")]
        assert main(args + ["--epoch-ops", "0"]) == 2
        assert "--epoch-ops must be positive" in capsys.readouterr().err

    def test_window_must_be_positive(self, capsys):
        args = [a for a in self.ARGS if a not in ("--window", "200")]
        assert main(args + ["--window", "-3"]) == 2
        assert "--window must be positive" in capsys.readouterr().err

    def test_serve_open_loop(self, capsys):
        assert main(self.ARGS + ["--arrival", "poisson", "--rate", "50000",
                                 "--queue-depth", "64",
                                 "--shed-policy", "shed"]) == 0
        out = capsys.readouterr().out
        assert "goodput_kops" in out and "shed" in out

    def test_open_loop_requires_rate(self, capsys):
        assert main(self.ARGS + ["--arrival", "bursty"]) == 2
        err = capsys.readouterr().err
        assert "positive --rate" in err and "Traceback" not in err

    def test_closed_loop_rejects_open_loop_flags(self, capsys):
        assert main(self.ARGS + ["--queue-depth", "64"]) == 2
        assert "only apply to open-loop" in capsys.readouterr().err

    def test_queue_depth_must_be_positive(self, capsys):
        assert main(self.ARGS + ["--arrival", "poisson", "--rate", "1000",
                                 "--queue-depth", "0"]) == 2
        assert "queue_depth must be positive" in capsys.readouterr().err

    def test_deadline_must_be_positive(self, capsys):
        assert main(self.ARGS + ["--arrival", "diurnal", "--rate", "1000",
                                 "--deadline", "-1"]) == 2
        assert "deadline_s must be positive" in capsys.readouterr().err


class TestSlo:
    ARGS = ["slo", "--b", "32", "--m", "256", "--n", "800",
            "--epoch-ops", "128", "--loads", "0.8", "1.5"]

    def test_slo_sweep(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "goodput_kops" in out and "slo_ok" in out
        assert "max sustainable goodput" in out

    def test_loads_must_be_positive(self, capsys):
        args = ["slo", "--b", "32", "--m", "256", "--n", "800",
                "--loads", "0.5", "-1.0"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "--loads factors must be positive" in err
        assert "Traceback" not in err

    def test_slo_ms_must_be_positive(self, capsys):
        assert main(self.ARGS + ["--slo-ms", "0"]) == 2
        assert "--slo-ms must be positive" in capsys.readouterr().err


class TestConfigErrors:
    """Errors the config classes and ``make_context`` raise exit 2, cleanly."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--shards", "0"],
            ["serve", "--shards", "0", "--slots", "64"],
            ["serve", "--cache-blocks", "-1"],
            ["serve", "--m", "0"],
            ["slo", "--cache-blocks", "-1"],
        ],
        ids=" ".join,
    )
    def test_exits_2_with_command_prefix(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ")
        assert "Traceback" not in err

    def test_memory_budget_overrun_exits_2(self, capsys):
        """A table and buffer pool that outgrow ``m`` mid-run (LSM 257 +
        pool 128 > 384 words) exit 2 with the budget's message."""
        argv = ["serve", "--table", "lsm", "--cache-blocks", "8", "--b", "16",
                "--m", "256", "--shards", "2", "--n", "20000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: memory over budget: 385 > m=384 words")
        assert "Traceback" not in err

    def test_rejected_before_the_journal_opens(self, tmp_path, capsys):
        journal = tmp_path / "j.bin"
        assert main(["serve", "--m", "0", "--journal", str(journal)]) == 2
        assert "m must be positive" in capsys.readouterr().err
        assert not journal.exists()


class TestRecover:
    def test_serve_then_recover_round_trip(self, tmp_path, capsys):
        snap, journal = str(tmp_path / "s.pkl"), str(tmp_path / "j.bin")
        assert main(["serve", "--b", "32", "--m", "256", "--n", "600",
                     "--window", "200", "--epoch-ops", "128",
                     "--backend", "durable-arena",
                     "--journal", journal, "--snapshot", snap]) == 0
        serve_out = capsys.readouterr().out
        assert "epochs committed" in serve_out
        assert main(["recover", "--snapshot", snap, "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "replayed_epochs" in out
        # The recovered cluster I/O line equals the served one.
        served = [l for l in serve_out.splitlines() if l.startswith("cluster I/O")]
        recovered = [l for l in out.splitlines() if l.startswith("cluster I/O")]
        assert served == recovered

    def test_recover_missing_snapshot(self, tmp_path, capsys):
        assert main(["recover", "--snapshot", str(tmp_path / "nope.pkl")]) == 2
        assert "recover:" in capsys.readouterr().err


class TestObservability:
    ARGS = ["serve", "--b", "32", "--m", "256", "--n", "600", "--window", "200",
            "--epoch-ops", "128"]

    def _trace(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert main(self.ARGS + ["--trace", path]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and path in out
        return path

    def test_serve_trace_then_summary(self, tmp_path, capsys):
        path = self._trace(tmp_path, capsys)
        assert main(["trace-summary", path]) == 0
        out = capsys.readouterr().out
        assert "epoch" in out and "io/op" in out
        assert "slowest" in out
        assert "charged I/Os attributed" in out

    def test_trace_summary_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"this is not a trace\n")
        assert main(["trace-summary", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "trace-summary:" in err and "Traceback" not in err

    def test_trace_summary_missing_file(self, tmp_path, capsys):
        assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "trace-summary:" in capsys.readouterr().err

    def test_trace_summary_torn_tail(self, tmp_path, capsys):
        path = self._trace(tmp_path, capsys)
        with open(path, "ab") as fh:
            fh.write(b"00000000 {torn")
        assert main(["trace-summary", path]) == 2
        err = capsys.readouterr().err
        assert "--torn-ok" in err
        assert main(["trace-summary", path, "--torn-ok"]) == 0
        out = capsys.readouterr().out
        assert "charged I/Os attributed" in out

    def test_trace_summary_top_must_be_positive(self, tmp_path, capsys):
        path = self._trace(tmp_path, capsys)
        assert main(["trace-summary", path, "--top", "0"]) == 2
        assert "--top must be positive" in capsys.readouterr().err

    def test_serve_metrics_every(self, capsys):
        assert main(self.ARGS + ["--metrics-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "-- metrics @ epoch 2 --" in out
        assert "# TYPE repro_epochs_total counter" in out
        assert "-- metrics @ end" in out

    def test_metrics_every_must_be_non_negative(self, capsys):
        assert main(self.ARGS + ["--metrics-every", "-1"]) == 2
        err = capsys.readouterr().err
        assert "serve:" in err and "Traceback" not in err
