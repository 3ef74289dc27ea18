"""CLI tests."""

from pathlib import Path

import pytest

from repro.cli import (
    EXIT_ERROR,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

KERNEL = """
class Inc extends Accelerator[Int, Int] {
  val id: String = "inc"
  def call(in: Int): Int = in + 1
}
"""

FILTER_KERNEL = """
class Even extends Accelerator[Int, Boolean] {
  val id: String = "even"
  def call(in: Int): Boolean = (in & 1) == 0
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "inc.scala"
    path.write_text(KERNEL)
    return str(path)


def assert_usage_error(argv, capsys, message):
    """``argv`` is a bad command line: exit 2 with ``message`` on
    stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE
    assert message in capsys.readouterr().err


class TestCompileCommand:
    def test_emits_c(self, kernel_file, capsys):
        assert main(["compile", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "void kernel(int N, int *in_1, int *out_1)" in out
        assert "in_1 + 1" in out

    def test_filter_pattern(self, tmp_path, capsys):
        path = tmp_path / "even.scala"
        path.write_text(FILTER_KERNEL)
        assert main(["compile", str(path), "--pattern", "filter"]) == 0
        assert "(in_1 & 1) == 0" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert_usage_error(["compile", "/nonexistent.scala"], capsys,
                           "no such kernel file")

    def test_length_options(self, tmp_path, capsys):
        path = tmp_path / "k.scala"
        path.write_text("""
class K extends Accelerator[Array[Float], Float] {
  val id: String = "k"
  def call(in: Array[Float]): Float = in(0)
}
""")
        assert main(["compile", str(path), "--length", "in=4"]) == 0
        assert "i * 4" in capsys.readouterr().out

    def test_bad_length_syntax(self, kernel_file, capsys):
        assert_usage_error(["compile", kernel_file, "--length", "oops"],
                           capsys, "expected KEY=N")

    def test_non_integer_length(self, kernel_file, capsys):
        assert_usage_error(["compile", kernel_file, "--length", "in=x"],
                           capsys, "expected KEY=N")

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.scala"
        path.write_text("def f(x: Int): Int = unknownCall(x)")
        assert main(["compile", str(path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestExploreCommand:
    def test_explore_summary(self, kernel_file, capsys):
        code = main(["explore", kernel_file, "--seed", "3",
                     "--time-limit", "60", "--emit-c"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best design" in out
        assert "#pragma" in out or "cycles/batch" in out

    def test_explore_json_export(self, kernel_file, tmp_path, capsys):
        import json

        target = tmp_path / "run.json"
        code = main(["explore", kernel_file, "--seed", "3",
                     "--time-limit", "60", "--json", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["name"] == "s2fa"
        assert data["trace"]
        assert data["best_design"]["cycles"] > 0


class TestInfoCommands:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "KMeans" in out and "S-W" in out

    def test_report(self, capsys):
        assert main(["report", "PR"]) == 0
        out = capsys.readouterr().out
        assert "expert manual design" in out
        assert "memory bound" in out

    def test_report_unknown_app(self, capsys):
        assert_usage_error(["report", "Nope"], capsys, "unknown app")


class TestRunCommand:
    def test_clean_run_matches_jvm(self, capsys):
        assert main(["run", "KMeans", "--tasks", "24"]) == 0
        out = capsys.readouterr().out
        assert "results match JVM : yes" in out
        assert "accelerated tasks" in out

    def test_faulted_run_still_matches(self, capsys):
        code = main(["run", "KMeans", "--tasks", "24",
                     "--fault-plan",
                     "transient=0.3,hang=0.1,corrupt=0.2,lose_after=5",
                     "--fault-seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "results match JVM : yes" in out
        assert "fault plan        : seed=7" in out

    def test_all_lost_degrades_to_jvm(self, capsys):
        code = main(["run", "AES", "--tasks", "16",
                     "--fault-plan", "lose_after=0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "results match JVM : yes" in out
        assert "accelerated tasks              | 0" in out

    def test_bad_fault_plan_reported(self, capsys):
        assert main(["run", "KMeans", "--fault-plan", "boom=1"]) \
            == EXIT_ERROR
        assert "unknown fault plan key" in capsys.readouterr().err

    def test_run_unknown_app(self, capsys):
        assert_usage_error(["run", "Nope"], capsys, "unknown app")

    def test_stream_unknown_app(self, capsys):
        assert_usage_error(["stream", "Nope"], capsys,
                           "unknown streaming app")


class TestDseCommand:
    def test_dse_end_to_end_with_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "out.json"
        code = main(["dse", "kmeans", "--time-limit", "20",
                     "--jobs", "2", "--tasks", "24",
                     "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "best design" in out
        assert "results match JVM : yes" in out
        assert f"trace written to {trace}" in out

        document = json.loads(trace.read_text())
        assert validate_chrome_trace(document) == []
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        for required in ("pipeline.explore", "pipeline.run",
                         "compile.kernel", "dse.run", "dse.batch",
                         "hls.estimate", "blaze.offload"):
            assert required in names, f"missing {required} span"
        # jobs=2 puts worker-side estimates on their own thread lanes.
        assert {e["tid"] for e in events} != {0}

    def test_dse_metrics_table(self, capsys):
        code = main(["dse", "KNN", "--time-limit", "20",
                     "--tasks", "16", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accelerated tasks" in out

    def test_dse_unknown_app(self, capsys):
        assert_usage_error(["dse", "Nope"], capsys, "unknown app")


class TestDeviceFlags:
    def test_run_on_a_named_device(self, capsys):
        code = main(["run", "KMeans", "--tasks", "16",
                     "--device", "xcku060"])
        assert code == 0
        assert "results match JVM : yes" in capsys.readouterr().out

    def test_unknown_device_is_a_typed_error(self, capsys):
        assert main(["run", "KMeans", "--device", "xcnope"]) \
            == EXIT_ERROR
        err = capsys.readouterr().err
        assert "unknown device 'xcnope'" in err
        # The error names every registered board.
        for name in ("xc7k325t", "xcku060", "xcvu9p", "xcvu13p"):
            assert name in err

    def test_explore_on_a_named_device(self, kernel_file, capsys):
        assert main(["explore", kernel_file, "--time-limit", "20",
                     "--device", "xc7k325t"]) == 0
        assert "best design" in capsys.readouterr().out

    def test_dse_device_sweep_selects_cheapest(self, capsys):
        code = main(["dse", "kmeans", "--time-limit", "20",
                     "--tasks", "8",
                     "--devices", "xcvu9p,xcku060"])
        assert code == 0
        out = capsys.readouterr().out
        assert "device sweep" in out
        assert "<- cheapest" in out
        assert "selected device   : xcku060 (price 0.45)" in out
        assert "results match JVM : yes" in out

    def test_dse_sweep_finds_the_edge_board_viable(self, capsys):
        # KMeans' *default* design overflows the edge Kintex, but the
        # DSE finds configs that fit — so the cheap board still wins
        # the sweep, which is exactly the cost argument for making the
        # device an exploration dimension.
        code = main(["dse", "kmeans", "--time-limit", "20",
                     "--tasks", "8",
                     "--devices", "xc7k325t,xcku060"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected device   : xc7k325t (price 0.25)" in out

    def test_dse_unmeetable_qor_target_is_an_error(self, capsys):
        code = main(["dse", "kmeans", "--time-limit", "20",
                     "--devices", "xcku060,xcvu9p",
                     "--qor-target", "0.000001"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert "misses target" in captured.out
        assert "no explored device met the QoR target" in captured.err

    def test_dse_unknown_sweep_device(self, capsys):
        assert main(["dse", "kmeans", "--devices",
                     "xcvu9p,xcnope"]) == EXIT_ERROR
        assert "unknown device 'xcnope'" in capsys.readouterr().err


class TestTraceCommands:
    def _record(self, kernel_file, tmp_path, suffix):
        trace = tmp_path / f"trace{suffix}"
        assert main(["explore", kernel_file, "--time-limit", "60",
                     "--trace", str(trace)]) == 0
        return trace

    def test_summarize_chrome_trace(self, kernel_file, tmp_path, capsys):
        trace = self._record(kernel_file, tmp_path, ".json")
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Per-stage time breakdown" in out
        assert "hls.estimate" in out
        assert "Flamegraph" in out

    def test_summarize_jsonl_trace(self, kernel_file, tmp_path, capsys):
        trace = self._record(kernel_file, tmp_path, ".jsonl")
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace),
                     "--top", "3", "--no-flame"]) == 0
        out = capsys.readouterr().out
        assert "Top 3 slowest spans" in out
        assert "Flamegraph" not in out

    def test_summarize_missing_file(self, capsys):
        assert_usage_error(["trace", "summarize", "/nonexistent.json"],
                           capsys, "no such trace file")

    def test_summarize_rejects_invalid_chrome_trace(self, tmp_path,
                                                    capsys):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"traceEvents": [{"ph": "X", "name": "a"}]}))
        assert_usage_error(["trace", "summarize", str(bad)], capsys,
                           "invalid Chrome trace")

    def test_run_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        assert main(["run", "AES", "--tasks", "16",
                     "--trace", str(trace)]) == 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert "trace written to" in out


class TestExitCodes:
    """The CLI's exit codes are a contract with schedulers: 0 success,
    1 result mismatch, 2 usage error, 3 pipeline error, 75 interrupted
    with a resumable checkpoint (EX_TEMPFAIL)."""

    def test_pinned_values(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_ERROR, EXIT_INTERRUPTED) \
            == (0, 2, 3, 75)

    def test_success_is_zero(self, kernel_file):
        assert main(["explore", kernel_file, "--seed", "1",
                     "--time-limit", "40"]) == EXIT_OK

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore"])  # missing required source argument
        assert excinfo.value.code == EXIT_USAGE

    def test_pipeline_error_is_three(self, tmp_path, capsys):
        path = tmp_path / "bad.scala"
        path.write_text("def f(x: Int): Int = unknownCall(x)")
        assert main(["compile", str(path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_resume_without_checkpoint_dir_is_usage_error(
            self, kernel_file, capsys):
        assert main(["explore", kernel_file, "--resume"]) == EXIT_ERROR
        assert "checkpoint_dir" in capsys.readouterr().err

    def test_interrupted_is_75_and_resumable(self, kernel_file,
                                             tmp_path, capsys,
                                             monkeypatch):
        ck = tmp_path / "ck"
        monkeypatch.setenv("S2FA_CHAOS_KILL", "stop:1")
        code = main(["explore", kernel_file, "--seed", "3",
                     "--time-limit", "60",
                     "--checkpoint-dir", str(ck)])
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED
        assert "interrupted:" in captured.err
        assert "--resume" in captured.err
        monkeypatch.delenv("S2FA_CHAOS_KILL")
        code = main(["explore", kernel_file, "--seed", "3",
                     "--time-limit", "60",
                     "--checkpoint-dir", str(ck), "--resume"])
        assert code == EXIT_OK
        assert "resumed" in capsys.readouterr().out


class TestFuzz:
    CORPUS = Path(__file__).resolve().parent / "fuzz_corpus"

    def test_small_clean_campaign(self, capsys):
        assert main(["fuzz", "--iterations", "8", "--seed", "3",
                     "--no-metamorphic"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "8 kernels" in out
        assert "failures          : 0" in out

    def test_replay_only_committed_corpus(self, capsys):
        assert main(["fuzz", "--replay-only",
                     "--corpus", str(self.CORPUS)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "entries replayed" in out
        assert "FAIL" not in out

    def test_replay_only_requires_corpus(self, capsys):
        assert_usage_error(["fuzz", "--replay-only"], capsys,
                           "--replay-only requires --corpus")

    def test_failing_campaign_exits_one_and_writes_artifacts(
            self, tmp_path, capsys, monkeypatch):
        import repro.compiler.lift as lift_mod

        orig_step = lift_mod.Lifter._step

        def planted(self, instr, stack, stmts):
            if instr.mnemonic in ("isub", "lsub", "fsub", "dsub") \
                    and len(stack) >= 2:
                stack[-1], stack[-2] = stack[-2], stack[-1]
            return orig_step(self, instr, stack, stmts)

        monkeypatch.setattr(lift_mod.Lifter, "_step", planted)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        code = main(["fuzz", "--iterations", "40", "--seed", "7",
                     "--max-failures", "1", "--no-metamorphic",
                     "--corpus", str(corpus)])
        out = capsys.readouterr().out
        assert code == EXIT_FAILURE
        assert "differential compare" in out
        assert "minimized to" in out
        assert any(corpus.glob("crash_*/regression.json"))


class TestServeCommandLine:
    def test_serve_needs_a_socket(self, capsys):
        assert_usage_error(["serve"], capsys, "serve needs --socket")

    def test_bad_tenant_weight(self, capsys):
        assert_usage_error(["serve", "--simulate", "--tenant-weight",
                            "a=x"], capsys, "expected KEY=N")
