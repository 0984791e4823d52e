"""Self-tests of the benchmark: report parsing, span arithmetic, smoke runs.

    python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402

REPORT = """experiment: solve-fde
config:
  alpha = 0.4
  grid: a = 0.0, b = 10.0, n = 2048
  system = harmonic
  m_paths = 10000
  seed = 7
  out = {out}
  p0 = 0
  x0 = 1
check [PASS] solution finite: max |y| = 1
check [FAIL] matches Mittag-Leffler oscillator solution: max dev = 2.2e-03 <= 5.0e-04
files:
  {out}/solution.csv
  {out}/solution.csv.meta
duration: 9.87 s
overall: FAIL
"""


def _out_dir(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "solution.csv").write_text("t,x0\n0,1\n")
    (out / "solution.csv.meta").write_text("alpha=0.4\n")
    return str(out)


def test_parse_report_reads_every_section():
    rep = run.parse_report(REPORT.format(out="o"))
    assert rep.kind == "solve-fde"
    assert rep.config["alpha"] == "0.4"
    assert rep.config["b"] == "10.0" and rep.config["n"] == "2048"
    assert rep.config["seed"] == "7"
    assert rep.checks == [
        ("solution finite", True),
        ("matches Mittag-Leffler oscillator solution", False),
    ]
    assert rep.files == ["o/solution.csv", "o/solution.csv.meta"]
    assert rep.duration == 9.87
    assert rep.overall == "FAIL"


def test_judge_accepts_a_failed_check_and_hashes_outputs(tmp_path):
    out = _out_dir(tmp_path)
    inv = run.Invocation(("solve-fde", "--alpha", "0.4", "--b", "10"), 2)
    argv = [*inv.args, "--seed", "7", "--out", out]
    outcome = run.judge(inv, argv, 1, REPORT.format(out=out), out)
    assert outcome.problems == []
    assert not outcome.crashed
    assert outcome.passed_checks == 1
    assert set(outcome.hashes) == {"solution.csv", "solution.csv.meta"}


def test_judge_flags_mismatches(tmp_path):
    out = _out_dir(tmp_path)
    os.remove(os.path.join(out, "solution.csv.meta"))
    inv = run.Invocation(("solve-fde", "--alpha", "0.3"), 3)
    argv = [*inv.args, "--seed", "7", "--out", out]
    outcome = run.judge(inv, argv, 0, REPORT.format(out=out), out)
    text = "\n".join(outcome.problems)
    assert "2 check lines, 3 declared" in text
    assert "exit 0 with overall FAIL" in text
    assert "echo alpha = 0.4, passed 0.3" in text
    assert "missing or empty output" in text
    assert not outcome.crashed
    other = run.judge(inv, ["frac-deriv", *argv[1:]], 1, REPORT.format(out=out), out)
    assert "experiment solve-fde, ran frac-deriv" in other.problems


@pytest.mark.parametrize(
    "exit_code, stdout",
    [
        (None, ""),  # killed by a signal or timed out
        (2, "error: n must be at least 2\n"),
        (1, REPORT.format(out="o").split("duration:")[0]),  # traceback after the checks
    ],
)
def test_crash_counts_every_declared_check_as_failed(tmp_path, exit_code, stdout):
    out = _out_dir(tmp_path)
    crashed = run.Invocation(("solve-fde",), 2)
    fine = run.Invocation(("solve-fde", "--alpha", "0.4", "--b", "10"), 2)
    argv_fine = [*fine.args, "--seed", "7", "--out", out]
    outcomes = [
        run.judge(crashed, ["solve-fde", "--seed", "7", "--out", out], exit_code, stdout, out),
        run.judge(fine, argv_fine, 1, REPORT.format(out=out), out),
    ]
    assert outcomes[0].crashed and outcomes[0].passed_checks == 0
    colds = [
        run.Cold(wall=2.0, cpu=1.5, maxrss_kb=1000, exit_code=exit_code, stdout=stdout, stderr=""),
        run.Cold(wall=11.0, cpu=10.0, maxrss_kb=3000, exit_code=1, stdout="", stderr=""),
    ]
    values = run.rep_values(colds, outcomes)
    assert values["checks"] == 4
    assert values["pass_ratio"] == 0.25
    assert values["wall_s"] == 13.0
    assert values["setup_s"] == pytest.approx(2.0 + 11.0 - 9.87)
    assert values["cpu_s"] == 11.5
    assert values["peak_rss_mb"] == 3000 * 1024 / 1e6


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def _nested_spans():
    # run [0,10] { a [1,4] { b [2,3] }, c [5,9] { b [6,7] } }
    spans = tracer.Spans(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    r = spans.open("run")
    a = spans.open("a")
    b1 = spans.open("b")
    spans.close(b1)
    spans.close(a)
    c = spans.open("c")
    b2 = spans.open("b")
    spans.close(b2)
    spans.close(c)
    spans.close(r)
    return spans


def test_self_time_subtracts_child_spans():
    spans = _nested_spans()
    assert spans.self_time("run") == 10 - 3 - 4
    assert spans.self_time("a") == 2
    assert spans.self_time("c") == 3
    assert spans.self_time("b") == 2
    assert spans.self_time(("a", "c")) == 5


def test_busy_time_counts_nested_group_members_once():
    spans = _nested_spans()
    assert spans.outermost(("a", "b")) == [1, 4]
    assert spans.busy(("a", "b")) == 3 + 1
    assert spans.busy("b") == 2
    assert spans.coverage("run") == pytest.approx(0.7)


def test_install_wraps_every_binding_of_a_function():
    core = types.ModuleType("fakepkg.core")
    exec("def work(x):\n    return 2 * x\n", core.__dict__)
    core.work.__module__ = "fakepkg.core"
    user = types.ModuleType("fakepkg.user")
    user.work = core.work
    exec("def call(x):\n    return work(x) + 1\n", user.__dict__)
    user.call.__module__ = "fakepkg.user"
    modules = {"fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    try:
        t = tracer.Tracer()
        assert t.install("fakepkg") == 2
        assert core.work is user.work
        assert user.call(3) == 7
    finally:
        for name in modules:
            del sys.modules[name]
    assert t.spans.name == ["user.call", "core.work"]
    assert t.spans.parent == [-1, 0]


TINY = ("--n", "64", "--m-paths", "200")


def _tiny(name):
    return tuple(
        run.Invocation(inv.args + TINY, inv.checks) for inv in run.WORKLOADS[name]
    )


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_every_workload_at_tiny_size(name):
    result, record = run.end_to_end(name, 3, 0.1, _tiny(name))
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPS * len(run.WORKLOADS[name])
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert result["metrics"]["wall_s"]["value"] >= result["metrics"]["setup_s"]["value"] > 0

    result, record = run.traced(name, 3, _tiny(name))
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0
    layers = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(layers) == set(tracer.PER_LAYER_UNITS)
    assert layers["trace.coverage"] > 0.5
    expected_samples = {"mc_default": 1, "mc_compat": 3}.get(name, 0)
    assert layers["stochastic_time.sample_calls"] == expected_samples
    assert layers["stochastic_time.paths"] == 200 * expected_samples
    if name == "ml_oracle":
        assert layers["special.ml_calls"] == 2 * 65 == len(record["ml_latency"])


def test_fails_without_program_sources(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(os.path.join(root, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
