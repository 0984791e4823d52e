"""Command-line interface: flags, config files, exit codes, artifacts."""

import dataclasses
import importlib.util
import itertools
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

_WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "fractime.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def test_ml_eval_prints_euler_number(tmp_path):
    res = run_cli("ml-eval", "--alpha", "1", "--z", "1", "--out", str(tmp_path))
    assert res.returncode == 0
    assert "2.7182818285" in res.stdout
    assert (tmp_path / "ml.csv").exists()


def test_ml_alias_matches_full_name(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    a = run_cli("ml", "--alpha", "0.5", "--z", "-1", "--out", str(out_a))
    b = run_cli("ml-eval", "--alpha", "0.5", "--z", "-1", "--out", str(out_b))
    assert a.returncode == 0 and b.returncode == 0
    assert "0.4275835762" in a.stdout
    assert (out_a / "ml.csv").read_bytes() == (out_b / "ml.csv").read_bytes()


def test_ml_eval_sums_positive_z_past_a_tiny_first_term(tmp_path):
    # 1/Gamma(20) lies below the series' stop threshold, but the terms grow
    # after it; E_{0.5,20}(10) by the 40-digit mpmath Taylor series
    res = run_cli(
        "ml-eval", "--alpha", "0.5", "--beta", "20", "--z", "10", "--out", str(tmp_path)
    )
    assert res.returncode == 0
    header, row = (tmp_path / "ml.csv").read_text().splitlines()
    assert header == "alpha,beta,z,value"
    assert float(row.split(",")[-1]) == pytest.approx(537623.428363227, rel=1e-10)


def test_ml_requires_z(tmp_path):
    res = run_cli("ml", "--out", str(tmp_path))
    assert res.returncode == 2
    assert "z is required" in res.stderr


def test_alpha_outside_unit_interval_is_rejected(tmp_path):
    res = run_cli("frac-deriv", "--alpha", "1.5", "--out", str(tmp_path))
    assert res.returncode == 2
    assert "alpha must lie in (0,1)" in res.stderr


@pytest.mark.parametrize(
    "command",
    ["frac-deriv", "solve-fde", "subordinator", "scaling-limit", "verify-stanislavsky",
     "verify-coherence", "verify-compatibility"],
)
def test_alpha_outside_unit_interval_is_rejected_by_every_command(tmp_path, capsys, command):
    # FracOrder refuses it, once, in every command but ml-eval
    from fractime import cli

    assert cli.main([command, "--alpha", "1.5", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alpha must lie in (0,1), got 1.5\n"
    assert os.listdir(tmp_path) == []


def test_ml_eval_takes_alpha_past_one(tmp_path, capsys):
    from fractime import cli

    assert cli.main(["ml-eval", "--alpha", "1.5", "--z", "-1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_frac_deriv_passes_power_rule_check(tmp_path):
    res = run_cli(
        "frac-deriv", "--alpha", "0.5", "--n", "512", "--out", str(tmp_path)
    )
    assert res.returncode == 0
    assert "check [PASS]" in res.stdout
    assert "FAIL" not in res.stdout
    header = (tmp_path / "frac_deriv.csv").read_text().splitlines()[0]
    assert header == "t,left,right"


def test_solve_fde_oscillator_oracle_check(tmp_path):
    res = run_cli(
        "solve-fde",
        "--alpha", "0.5",
        "--b", "1",
        "--n", "1024",
        "--system", "harmonic",
        "--out", str(tmp_path),
    )
    assert res.returncode == 0
    assert "Mittag-Leffler oscillator" in res.stdout
    assert (tmp_path / "solution.csv").exists()
    assert (tmp_path / "solution.csv.meta").exists()


def test_solve_fde_writes_data_and_sidecar(tmp_path, capsys):
    from fractime import cli

    for run in "ab":
        args = ["solve-fde", "--b", "1", "--n", "32", "--out", str(tmp_path / run)]
        assert cli.main(args) == 0
    capsys.readouterr()
    data, meta = (tmp_path / "a" / name for name in ("solution.csv", "solution.csv.meta"))
    lines = data.read_text().splitlines()
    assert lines[0] == "t,x0,x1"
    assert len(lines) == 1 + 33
    assert meta.read_text().splitlines() == [
        "alpha=0.5", "n=32", "a=0", "b=1", "scheme=fractional-adams"
    ]
    for name in ("solution.csv", "solution.csv.meta"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_that_errors_writes_nothing(tmp_path, capsys):
    # the stiff quartic diverges inside the fractional solve
    from fractime import cli

    args = ["solve-fde", "--system", "quartic(100)", "--b", "50", "--out", str(tmp_path)]
    assert cli.main(args) == 2
    assert "diverged" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_oscillator_oracle_reads_the_nodes_in_its_validated_range(tmp_path, monkeypatch, capsys):
    # at b = 100 the nodes past t = 50 have t^2a > Z_MAX: the oracle checks
    # the nodes before them instead of refusing a valid input
    from fractime.special import Z_MAX

    args = ["solve-fde", "--b", "100", "--n", "64", "--out", str(tmp_path)]
    code, report = _recorded_run(monkeypatch, args)
    capsys.readouterr()
    assert code in (0, 1)
    oracle = _by_name(report)["matches Mittag-Leffler oscillator solution"]
    assert oracle.what == f"max dev over t^2a in [0, {Z_MAX:g}]"
    assert code == (0 if oracle.passed else 1)


def test_failed_rename_leaves_the_earlier_output_intact(tmp_path, monkeypatch, capsys):
    from fractime import cli

    assert cli.main(["ml-eval", "--z", "1", "--out", str(tmp_path)]) == 0
    before = (tmp_path / "ml.csv").read_bytes()

    def failing_replace(src, dst):
        raise OSError("simulated failure while renaming into place")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert cli.main(["ml-eval", "--z", "2", "--out", str(tmp_path)]) == 3
    assert "simulated failure" in capsys.readouterr().err
    assert (tmp_path / "ml.csv").read_bytes() == before
    assert os.listdir(tmp_path) == ["ml.csv"]


def test_system_parsing_accepts_parameters(tmp_path):
    res = run_cli(
        "solve-fde",
        "--system", "harmonic(m=2, omega=0.5)",
        "--b", "1",
        "--n", "128",
        "--out", str(tmp_path),
    )
    assert res.returncode == 0
    res2 = run_cli(
        "solve-fde",
        "--system", "quartic(lambda=2)",
        "--b", "1",
        "--n", "128",
        "--out", str(tmp_path),
    )
    assert res2.returncode == 0

    from fractime.cli import parse_system
    from fractime.errors import ConfigError
    from fractime.systems import free_particle, harmonic, quartic

    probe = np.array([[0.7], [-1.3]])
    for text, system in (
        ("free-particle", free_particle()),
        ("free-particle(3)", free_particle(m=3.0)),
        ("free-particle(m=3)", free_particle(m=3.0)),
        ("harmonic", harmonic()),
        ("harmonic(2, 0.5)", harmonic(m=2.0, omega=0.5)),
        ("harmonic(m=2, omega=0.5)", harmonic(m=2.0, omega=0.5)),
        ("harmonic(omega=0.5)", harmonic(omega=0.5)),
        ("quartic", quartic()),
        ("quartic(2)", quartic(lam=2.0)),
        ("quartic(lambda=2)", quartic(lam=2.0)),
    ):
        parsed = parse_system(text)
        assert parsed.mass == system.mass, text
        assert np.array_equal(parsed.potential_grad(probe), system.potential_grad(probe)), text
    for text in ("free-particle(1, 2)", "harmonic(1, 2, 3)", "quartic(1, 2)"):
        with pytest.raises(ConfigError, match="too many system parameters"):
            parse_system(text)


@pytest.mark.parametrize(
    "system, oracle",
    [
        ("harmonic", True),
        ("harmonic(1, 1)", True),
        ("harmonic(m=1, omega=1)", True),
        # prints as 1 at 6 digits, and is not the unit oscillator
        ("harmonic(1,1.0000001)", False),
        ("harmonic(omega=2)", False),
        ("quartic", False),
    ],
)
def test_oscillator_oracle_reads_exact_parameters(tmp_path, monkeypatch, capsys, system, oracle):
    code, report = _recorded_run(
        monkeypatch,
        ["solve-fde", "--system", system, "--b", "1", "--n", "64", "--out", str(tmp_path)],
    )
    out = capsys.readouterr().out
    assert code == 0, out
    checks = _by_name(report)
    assert ("matches Mittag-Leffler oscillator solution" in checks) == oracle, out
    assert "matches power-law drift solution" not in checks


@pytest.mark.parametrize(
    "args, oracle",
    [
        (["--system", "free-particle(2)", "--x0", "0.5", "--p0", "1"], True),
        # the closed form starts at the origin of time
        (["--system", "free-particle", "--a", "0.5", "--b", "1.5"], False),
    ],
)
def test_power_law_drift_oracle_reads_mass_and_initial_data(
    tmp_path, monkeypatch, capsys, args, oracle
):
    code, report = _recorded_run(
        monkeypatch, ["solve-fde", *args, "--n", "64", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    checks = _by_name(report)
    assert ("matches power-law drift solution" in checks) == oracle, out
    if oracle:
        assert checks["matches power-law drift solution"].passed


def test_scaling_limit_refuses_a_zero_median_count_before_sampling(tmp_path):
    # P(N_c = 0) = c^-0.05 = 0.63 at c = 10^4: most counts are 0, so b(c)
    # would be 0; refused, naming c, before any warning or file
    out = tmp_path / "out"
    res = run_cli("scaling-limit", "--alpha", "0.05", "--m-paths", "1000", "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: c must exceed scale * 2^(1/alpha)"), res.stderr
    assert len(res.stderr.splitlines()) == 1 and "Warning" not in res.stderr
    assert not out.exists()


def test_unknown_system_is_rejected(tmp_path):
    res = run_cli("solve-fde", "--system", "pendulum", "--out", str(tmp_path))
    assert res.returncode == 2
    assert "unknown system" in res.stderr


def test_subordinator_writes_paths_and_stats(tmp_path):
    res = run_cli(
        "subordinator",
        "--b", "1",
        "--n", "8",
        "--m-paths", "500",
        "--out", str(tmp_path),
    )
    assert res.returncode == 0
    paths_header = (tmp_path / "subordinator_paths.csv").read_text().splitlines()[0]
    assert paths_header.startswith("t,path0")
    stats_header = (tmp_path / "subordinator_stats.csv").read_text().splitlines()[0]
    assert stats_header == "t,mean,stderr"


def test_subordinator_requires_zero_origin(tmp_path):
    # its grid starts at 0, so it takes no a
    res = run_cli("subordinator", "--a", "0.5", "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1] == "fractime: error: unrecognized arguments: --a=0.5"


@pytest.mark.parametrize("command", ["verify-stanislavsky", "verify-compatibility"])
def test_internal_time_checks_require_zero_origin(tmp_path, capsys, command):
    from fractime import cli

    with pytest.raises(SystemExit) as info:
        cli.main([command, "--a", "0.5", "--out", str(tmp_path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "fractime: error: unrecognized arguments: --a=0.5"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("out", ["", "file", "file/sub"], ids=["empty", "file", "under-file"])
def test_out_that_cannot_be_a_directory_is_refused(tmp_path, monkeypatch, capsys, out):
    # an empty path, an existing file and a path under that file: refused
    # naming out before the runner starts, with nothing created
    from fractime import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    ran = []
    runner = cli._Command(lambda report, n: ran.append(n))
    monkeypatch.setitem(cli._COMMANDS, "solve-fde", runner)
    assert cli.main(["solve-fde", "--n", "8", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not ran
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out must be a directory"), lines
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("key", ["x0", "p0"])
@pytest.mark.parametrize("value", ["1,", ",1", ",", "1,2"])
def test_phase_point_with_a_comma_is_refused_naming_its_key(tmp_path, capsys, key, value):
    from fractime import cli

    out = tmp_path / "out"
    assert cli.main(["solve-fde", "--n", "8", f"--{key}", value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [f"error: {key} must be a number, got '{value}'"]
    assert not out.exists()


def test_subordinator_rejects_oversized_level_count(tmp_path):
    res = run_cli("subordinator", "--tau-step", "1e-9", "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "levels per path" in lines[0]


@pytest.mark.parametrize("alpha", ["0.001", "0.005", "0.01"])
def test_subordinator_refuses_alpha_too_small_for_the_stable_map(tmp_path, alpha):
    # tau_step^(1/alpha) underflows to 0 below about 0.009; at 0.01 the map
    # gives NaN increments. Either is refused naming alpha, with no warning
    out = tmp_path / "out"
    res = run_cli("subordinator", "--alpha", alpha, "--n", "16", "--m-paths", "200", "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: alpha = {alpha}"), res.stderr
    assert "Warning" not in res.stderr
    assert not out.exists()


def test_frac_deriv_refuses_a_function_that_overflows(tmp_path):
    # exp passes the double range past t = 709.78; refused naming the
    # function and b, with no warning
    out = tmp_path / "out"
    res = run_cli("frac-deriv", "--function", "exp", "--b", "1000", "--n", "64", "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert lines == ["error: function exp overflows a double on [a, b] = [0, 1000]"], res.stderr
    assert not out.exists()


@pytest.mark.parametrize("b", ["709", "709.78"])
def test_frac_deriv_of_exp_is_finite_up_to_the_largest_finite_sample(tmp_path, b):
    # exp(709.78) = 1.8e308 is the largest sample below the double range;
    # the history sums are scaled by a power of two, so they stay finite.
    # Exit 1: the absolute self-convergence bar cannot hold near e^709
    out = tmp_path / "out"
    res = run_cli("frac-deriv", "--function", "exp", "--b", b, "--n", "64", "--out", str(out))
    assert res.returncode == 1, res.stderr
    assert "check [FAIL] self-convergence" in res.stdout
    assert "Warning" not in res.stderr
    table = np.loadtxt(out / "frac_deriv.csv", delimiter=",", skiprows=1)
    assert table.shape == (65, 3) and np.all(np.isfinite(table))


@pytest.mark.parametrize("function, n", [("sin", 3), ("cos", 2), ("exp", 3)])
def test_frac_deriv_self_convergence_needs_four_steps(tmp_path, capsys, function, n):
    # the check halves the grid, which needs two steps; t and t2 have
    # closed forms and run at n = 2
    from fractime import cli

    out = tmp_path / "out"
    assert cli.main(["frac-deriv", "--function", function, "--n", str(n), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: n must be at least 4 for function {function}, whose"
        f" self-convergence check halves the grid; got {n}\n"
    )
    assert not out.exists()
    assert cli.main(["frac-deriv", "--function", "t2", "--n", "2", "--out", str(out)]) == 0


@pytest.mark.parametrize("args", [["--scale", "1e-300"], ["--c", "1e300"]], ids=" ".join)
def test_scaling_limit_refuses_a_renewal_law_it_cannot_draw(tmp_path, args):
    out = tmp_path / "out"
    res = run_cli("scaling-limit", *args, "--m-paths", "1000", "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and "arrivals per path" in lines[0], res.stderr
    assert "c = " in lines[0] and "scale = " in lines[0]
    assert not out.exists()


def test_ml_eval_refuses_an_alpha_below_double_resolution(tmp_path):
    res = run_cli("ml-eval", "--alpha", "1e-17", "--z", "1", "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and "alpha = 1e-17 is too small" in lines[0], res.stderr


def test_subordinator_rejects_oversized_ensemble(tmp_path):
    # 10^7 paths on 2049 nodes would ask for 164 GB; the cap fires first
    res = run_cli("subordinator", "--m-paths", "10000000", "--out", str(tmp_path))
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and "ensemble cap" in lines[0]


@pytest.mark.parametrize(
    "args",
    [
        ["frac-deriv", "--n", "2000000000"],
        ["solve-fde", "--n", "2000000000"],
        ["verify-coherence", "--n", "2000000000"],
        ["solve-fde", "--n", "100000000"],
        ["frac-deriv", "--n", str(2**22 + 1)],
        ["scaling-limit", "--m-paths", "2000000000"],
        # 70,000 x 2,049 internal times exceed the 2^27-value ensemble cap
        ["verify-stanislavsky", "--m-paths", "70000"],
        ["verify-compatibility", "--m-paths", "70000"],
    ],
    ids=" ".join,
)
def test_oversized_input_is_refused_before_allocating(tmp_path, capsys, args):
    from fractime import cli

    tracemalloc.start()
    try:
        code = cli.main([*args, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert peak < 1 << 20, peak


def test_largest_grid_is_accepted():
    from fractime import cli

    ns = cli._build_parser().parse_args(["frac-deriv", "--n", str(2**22)])
    assert cli.parse_config(ns).values["n"] == 2**22


@pytest.mark.parametrize("command", ["verify-stanislavsky", "verify-compatibility"])
def test_oversized_classical_horizon_is_refused(tmp_path, command):
    # S(b) ~ 1e6 at b = 1e12 would ask for about 1e9 classical steps
    res = run_cli(command, "--b", "1e12", "--n", "16", "--m-paths", "2", "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "largest sampled S(b)" in lines[0]


def test_unexpected_exception_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys):
    from fractime import cli

    def broken(report, z):
        raise RuntimeError("runner broke")

    monkeypatch.setitem(
        cli._COMMANDS, "ml-eval", dataclasses.replace(cli._COMMANDS["ml-eval"], run=broken)
    )
    assert cli.main(["ml", "--z", "1", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: RuntimeError: runner broke"]


def test_config_file_fills_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.3\nn=256\nseed=11\n")
    res = run_cli(
        "frac-deriv", "--config", str(cfg), "--alpha", "0.5", "--out", str(tmp_path)
    )
    assert res.returncode == 0
    assert "alpha = 0.5" in res.stdout
    assert "n = 256" in res.stdout
    assert "seed = 11" in res.stdout


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    res = run_cli("ml", "--z", "1", "--config", str(cfg), "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr == (
        f"error: {cfg}:1: unknown key 'bogus' for ml-eval, which takes alpha, beta, z, seed, out\n"
    )


# the keys each command reads, in the order its report echoes them; every
# command takes seed and out as well, and the three benchmark commands that
# draw nothing take m_paths, since the benchmark's smoke test passes
# --m-paths to every command it runs
_TAKES = {
    "ml-eval": ["alpha", "beta", "z"],
    "frac-deriv": ["alpha", "a", "b", "n", "function"],
    "solve-fde": ["alpha", "a", "b", "n", "system", "x0", "p0"],
    "subordinator": ["alpha", "b", "n", "m_paths", "tau_step", "seed"],
    "scaling-limit": ["alpha", "m_paths", "c", "scale", "seed"],
    "verify-stanislavsky": ["alpha", "b", "n", "m_paths", "system", "x0", "p0", "seed"],
    "verify-coherence": ["alpha", "a", "b", "n", "system", "x0", "p0"],
    "verify-compatibility": ["alpha", "b", "n", "m_paths", "system", "x0", "p0", "seed"],
}
_TAKEN_UNREAD = ("frac-deriv", "solve-fde", "verify-coherence")
_EVERY_KEY = sorted({key for keys in _TAKES.values() for key in keys} | {"out"})


def _taken(command):
    unread = ["m_paths"] if command in _TAKEN_UNREAD else []
    return list(dict.fromkeys(_TAKES[command] + unread + ["seed", "out"]))


_UNREAD = [(command, key) for command in _TAKES for key in _EVERY_KEY if key not in _taken(command)]


@pytest.mark.parametrize("command, key", _UNREAD, ids=[" ".join(case) for case in _UNREAD])
def test_a_key_the_command_does_not_read_is_refused(tmp_path, capsys, command, key):
    # as a flag, and as a config-file key
    from fractime import cli

    flag = f"--{key.replace('_', '-')}"
    value = {"m_paths": "7", "n": "3"}.get(key, "1")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        cli.main([command, flag, value, "--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"fractime: error: unrecognized arguments: {flag}={value}"
    )
    config = tmp_path / "run.cfg"
    config.write_text(f"# {key} is not read\n{key}={value}\n")
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    takes = ", ".join(_taken(command))
    assert captured.err == (
        f"error: {config}:2: unknown key '{key}' for {command}, which takes {takes}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["ml-eval", "--z", "1"],
        ["frac-deriv", "--n", "8"],
        ["solve-fde", "--n", "8"],
        ["subordinator", "--n", "4", "--m-paths", "20"],
        ["scaling-limit", "--c", "200", "--m-paths", "1000"],
        ["verify-stanislavsky", "--n", "8", "--m-paths", "20"],
        ["verify-coherence", "--n", "8"],
        ["verify-compatibility", "--n", "8", "--m-paths", "20"],
    ],
    ids=lambda args: args[0],
)
def test_echo_lists_the_keys_read_then_seed_and_out(tmp_path, capsys, args):
    from fractime import cli

    assert cli.main([*args, "--out", str(tmp_path)]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("config:") + 1
    echo = list(itertools.takewhile(lambda line: line.startswith("  "), lines[start:]))
    keys = [line.strip().split(" = ", 1)[0] for line in echo]
    assert keys == _taken(args[0])
    # values print converted
    assert f"  out = {tmp_path}" in echo and "  alpha = 0.5" in echo
    assert ("  x0 = 1.0" in echo) == ("x0" in keys)


@pytest.mark.parametrize("command", _TAKEN_UNREAD)
def test_benchmark_commands_echo_m_paths_and_ignore_it(tmp_path, capsys, command):
    # the benchmark's smoke test passes --m-paths 200 and reads it back
    from fractime import cli

    runs = {}
    for extra in ([], ["--m-paths", "200"]):
        out = tmp_path / str(len(extra))
        assert cli.main([command, "--n", "8", *extra, "--out", str(out)]) in (0, 1)
        report = capsys.readouterr().out
        assert ("  m_paths = 200\n" in report) == bool(extra)
        runs[len(extra)] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs[0] == runs[2]


@pytest.mark.parametrize(
    "args, message",
    [
        (["subordinator", "--b", "-1"], "b must be positive, got b = -1.0"),
        (["verify-compatibility", "--b", "0"], "b must be positive, got b = 0.0"),
        (["solve-fde", "--a", "1", "--b", "1"], "b must exceed a, got a = 1.0, b = 1.0"),
    ],
    ids=["subordinator", "verify-compatibility", "solve-fde"],
)
def test_b_is_checked_against_a_only_where_a_is_taken(tmp_path, capsys, args, message):
    from fractime import cli

    assert cli.main([*args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_CONSTANT = "its solution is constant, so no residual separates causal from general"


@pytest.mark.parametrize(
    "args, message",
    [
        (["solve-fde", "--system", "harmonic(1,m=2)"], "system parameter m is set twice"),
        (["solve-fde", "--system", "harmonic(m=2,m=1)"], "system parameter m is set twice"),
        (["solve-fde", "--system", "quartic(2, lambda=1)"], "system parameter lam is set twice"),
        (
            ["verify-coherence", "--system", "free-particle"],
            f"x0 = 1.0, p0 = 0.0 is an equilibrium of free-particle: {_CONSTANT}",
        ),
        (
            ["verify-coherence", "--system", "harmonic", "--x0", "0"],
            f"x0 = 0.0, p0 = 0.0 is an equilibrium of harmonic: {_CONSTANT}",
        ),
        (
            ["verify-coherence", "--system", "quartic", "--x0", "0"],
            f"x0 = 0.0, p0 = 0.0 is an equilibrium of quartic: {_CONSTANT}",
        ),
    ],
    ids=["twice-by-position", "twice-by-name", "twice-lambda", "equilibrium-free",
         "equilibrium-harmonic", "equilibrium-quartic"],
)
@pytest.mark.filterwarnings("error")
def test_system_set_twice_or_an_equilibrium_to_verify_is_refused(tmp_path, capsys, args, message):
    # a parameter given twice was overwritten; at an equilibrium both
    # residuals are 0, so the coherence checks FAILed on working code
    from fractime import cli

    out = tmp_path / "out"
    assert cli.main([*args, "--n", "64", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_missing_config_file_is_reported(tmp_path):
    res = run_cli("ml", "--z", "1", "--config", str(tmp_path / "nope.cfg"))
    assert res.returncode == 2
    assert "config file not found" in res.stderr


_STEP = "step (b - a)/n = 1.5625e-312 is too small for alpha = 0.99: h^-alpha overflows"
_BUDGET = "the self-convergence budget 100 h^(2 - alpha) of function {} overflows a double"
_UNREADABLE = "config file not readable as UTF-8 text: "


@pytest.mark.parametrize(
    "args, message",
    [
        # h^-alpha of a subnormal step overflows before any transform
        (["frac-deriv", "--b", "1e-310", "--alpha", "0.99", "--n", "64"], _STEP),
        (["verify-coherence", "--b", "1e-310", "--alpha", "0.99", "--n", "64"], _STEP),
        # 100 h^(2 - alpha) of the half grid passes the double range
        (
            ["frac-deriv", "--function", "sin", "--b", "1e250", "--n", "64"],
            _BUDGET.format("sin") + " for a = 0.0, b = 1e+250; narrow [a, b]",
        ),
        (
            ["frac-deriv", "--function", "cos", "--a", "1e300", "--b", "1.0000001e300"]
            + ["--n", "64"],
            _BUDGET.format("cos") + " for a = 1e+300, b = 1.0000001e+300; narrow [a, b]",
        ),
        # a directory, and a file holding the byte 0xff
        (["ml-eval", "--z", "1", "--config", "{dir}"], _UNREADABLE + "{dir}"),
        (["ml-eval", "--z", "1", "--config", "{bad}"], _UNREADABLE + "{bad}"),
    ],
    ids=["step-deriv", "step-coherence", "budget-sin", "budget-cos", "config-dir", "config-0xff"],
)
@pytest.mark.filterwarnings("error")
def test_input_out_of_the_double_range_or_unreadable_is_refused(tmp_path, capsys, args, message):
    from fractime import cli

    paths = {"dir": str(tmp_path), "bad": str(tmp_path / "bad.cfg")}
    (tmp_path / "bad.cfg").write_bytes(b"alpha=0.5\n\xff\n")
    out = tmp_path / "out"
    assert cli.main([a.format(**paths) for a in args] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(**paths)}\n"
    assert not out.exists()


def test_verify_coherence_defaults_pass(tmp_path):
    res = run_cli("verify-coherence", "--out", str(tmp_path))
    assert res.returncode == 0
    assert "causal residual small" in res.stdout
    assert "causal equation equals embedded classical equation: max node gap = 0 == 0" in res.stdout
    assert "overall: PASS" in res.stdout


def test_report_references_every_output_file(tmp_path):
    res = run_cli(
        "subordinator", "--b", "1", "--n", "4", "--m-paths", "100", "--out", str(tmp_path)
    )
    assert res.returncode == 0
    for name in ("subordinator_paths.csv", "subordinator_stats.csv"):
        assert (tmp_path / name).exists()
        assert name in res.stdout


def test_reruns_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["subordinator", "--b", "1", "--n", "8", "--m-paths", "400", "--seed", "13"]
    assert run_cli(*args, "--out", str(out_a)).returncode == 0
    assert run_cli(*args, "--out", str(out_b)).returncode == 0
    for name in ("subordinator_paths.csv", "subordinator_stats.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _run_in(out: Path, capsys, argv: list) -> tuple:
    """Exit status, report lines (but duration:, with out written as OUT),
    stderr and the bytes of every file written into out."""
    from fractime import cli

    code = cli.main([*argv, "--out", str(out)])
    res = capsys.readouterr()
    report = [
        line.replace(str(out), "OUT")
        for line in res.out.splitlines()
        if not line.startswith("duration:")
    ]
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, report, res.err.replace(str(out), "OUT"), files


@pytest.mark.parametrize(
    "command, key, value, rest",
    [
        ("solve-fde", "--x0", "-1e3", ["--n", "64"]),
        ("solve-fde", "--p0", "-2.5e-1", ["--n", "64"]),
        ("solve-fde", "--a", "-1e0", ["--n", "64"]),
        ("solve-fde", "--b", "-5e-1", ["--a", "-1", "--n", "64"]),
        ("frac-deriv", "--a", "-2E0", ["--n", "64"]),
        ("ml-eval", "--z", "-3e0", []),
        ("verify-coherence", "--p0", "-1e-1", ["--n", "64"]),
        ("verify-stanislavsky", "--x0", "-2.5e0", ["--n", "32", "--m-paths", "200"]),
        ("verify-compatibility", "--x0", "-5e-1", ["--n", "32", "--m-paths", "200"]),
        # refused, for the same reason in both forms
        ("solve-fde", "--alpha", "-5e-1", ["--n", "64"]),
        ("ml-eval", "--beta", "-1e0", ["--z", "1"]),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_negative_values_in_exponent_form_parse(tmp_path, capsys, command, key, value, rest):
    # argparse alone reads -1e3 as a flag and exits 2 with "expected one argument"
    spaced = _run_in(tmp_path / "spaced", capsys, [command, key, value, *rest])
    joined = _run_in(tmp_path / "joined", capsys, [command, f"{key}={value}", *rest])
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


def test_scaling_limit_small_run(tmp_path):
    res = run_cli(
        "scaling-limit",
        "--c", "2000",
        "--m-paths", "2000",
        "--out", str(tmp_path),
    )
    assert res.returncode == 0
    header = (tmp_path / "scaling_limit.csv").read_text().splitlines()[0]
    assert header == "p,rescaled_counts_quantile,internal_time_quantile"


def _recorded_run(monkeypatch, args: list) -> tuple:
    """Exit code and RunReport of one in-process run (None if it errored)."""
    from fractime import cli

    reports = []
    real = cli.run_experiment

    def recording(cfg):
        reports.append(real(cfg))
        return reports[-1]

    monkeypatch.setattr(cli, "run_experiment", recording)
    code = cli.main(args)
    return code, reports[0] if reports else None


def _by_name(report) -> dict:
    return {check.name: check for check in report.checks}


def _printed_comparison(line: str) -> tuple:
    """(head, value, relation, bound) of a check line, split off its end."""
    head, value, relation, bound = line.rsplit(" ", 3)
    return head, float(value), relation, float(bound)


def _close_in_print(printed: float, exact: float) -> bool:
    """printed is exact to the six significant digits of a check line."""
    if math.isnan(exact) or math.isinf(exact):
        return printed == exact or (math.isnan(printed) and math.isnan(exact))
    return abs(printed - exact) <= 5e-6 * abs(exact)


def _smoke_invocations() -> list:
    """Argument lists of the CI step that runs every subcommand at tiny sizes."""
    lines = _WORKFLOW.read_text().split("<<'EOF'\n", 1)[1].splitlines()
    return [line.split() for line in itertools.takewhile(lambda t: t.strip() != "EOF", lines)]


_RELATIONS = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
}


@pytest.mark.parametrize(
    "args",
    # the last case printed overall FAIL over a summary that said PASS,
    # when the quartic check was made outside the bridge's summary
    _smoke_invocations() + [["verify-compatibility", "--n", "64", "--m-paths", "200"]],
    ids=" ".join,
)
def test_verdicts_agree_from_rule_to_report_and_summary(tmp_path, monkeypatch, capsys, args):
    code, report = _recorded_run(monkeypatch, [*args, "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert report.checks
    for check in report.checks:
        assert check.passed == _RELATIONS[check.relation](check.value, check.bound)
    check_lines = [check.line() for check in report.checks]
    # each line prints the value and bound its verdict reads
    for check, line in zip(report.checks, check_lines):
        head, value, relation, bound = _printed_comparison(line)
        mark = "PASS" if check.passed else "FAIL"
        assert head == f"check [{mark}] {check.name}: {check.what} =", line
        assert relation == check.relation, line
        assert _close_in_print(value, check.value), (line, check.value)
        assert _close_in_print(bound, check.bound), (line, check.bound)
    assert [line for line in lines if line.startswith("check [")] == check_lines
    overall = "PASS" if all(check.passed for check in report.checks) else "FAIL"
    assert lines[-1] == f"overall: {overall}"
    assert code == (0 if overall == "PASS" else 1)
    summaries = [path for path in report.files if path.endswith("_summary.txt")]
    assert len(summaries) == (args[0] in ("verify-stanislavsky", "verify-compatibility"))
    for path in summaries:
        assert Path(path).read_text().splitlines() == check_lines + [f"verdict: {overall}"]
    # --out holds exactly the listed files (no .tmp- file is left), each
    # non-empty and with the mode a plain open gives
    assert lines[lines.index("files:") + 1 : -2] == [f"  {path}" for path in report.files]
    assert sorted(os.listdir(tmp_path)) == sorted(Path(path).name for path in report.files)
    umask = os.umask(0)
    os.umask(umask)
    for path in report.files:
        assert Path(path).parent == tmp_path
        assert os.path.getsize(path) > 0, path
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask, path


def test_stanislavsky_band_check_fails_quartic(tmp_path, monkeypatch, capsys):
    # no refusal by label: the quartic mean leaves the FDE solution's band
    code, report = _recorded_run(
        monkeypatch,
        ["verify-stanislavsky", "--system", "quartic", "--n", "256", "--m-paths", "2000",
         "--out", str(tmp_path)],
    )
    out = capsys.readouterr().out
    assert code == 1, out
    band = _by_name(report)["MC subordination matches fractional solve"]
    assert not band.passed
    assert band.value < band.bound == 0.95


def test_commutation_line_prints_the_number_its_verdict_reads(tmp_path, monkeypatch, capsys):
    # the free particle's gradient is constant in x: gaps and stderr sit at
    # rounding level, where only the 1e-12 allowance decides
    code, report = _recorded_run(
        monkeypatch,
        ["verify-compatibility", "--system", "free-particle", "--p0", "0.1", "--n", "64",
         "--m-paths", "2000", "--out", str(tmp_path)],
    )
    out = capsys.readouterr().out
    assert code in (0, 1), out
    check = _by_name(report)["commutation gap within noise for quadratic H"]
    line = next(line for line in out.splitlines() if check.name in line)
    _, significance, _, bound = _printed_comparison(line)
    assert bound == 3.0
    assert _close_in_print(significance, check.value), (line, check.value)
    assert check.passed == (check.value <= 3.0), line


def test_frac_deriv_t2_power_rule_holds_off_the_origin(tmp_path, monkeypatch, capsys):
    code, report = _recorded_run(
        monkeypatch, ["frac-deriv", "--a", "0.5", "--n", "512", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert _by_name(report)["matches power-rule oracle"].passed


def test_frac_deriv_self_convergence_aligns_odd_grids(tmp_path, monkeypatch, capsys):
    # at odd n the coarse grid covers [a, t_{n-1}], so the gap stays near
    # the gap at n - 1 instead of comparing nodes at different times
    gaps = {}
    for n in (512, 513):
        code, report = _recorded_run(
            monkeypatch,
            ["frac-deriv", "--function", "sin", "--n", str(n), "--out", str(tmp_path)],
        )
        out = capsys.readouterr().out
        assert code == 0, out
        gaps[n] = _by_name(report)["self-convergence under grid refinement"].value
    assert gaps[513] <= 2.0 * gaps[512], gaps


@pytest.mark.xfail(
    strict=True,
    reason="caputo_left maps node 0 to 0 although D^a x(0+) = p0/m, so the outer"
    " Caputo derivative of the causal residual sees a jump of p0 near t = 0",
)
def test_verify_coherence_passes_with_initial_momentum(tmp_path, capsys):
    from fractime import cli

    code = cli.main(["verify-coherence", "--p0", "1", "--n", "256", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only: scipy and mpmath are test-only extras.
    # The evaluations cover a former high-precision series corner and a
    # former asymptotic-series point, so no route may import either.
    res = subprocess.run(
        [
            sys.executable,
            "-c",
            "import fractime.cli, sys; "
            "from fractime import MLParams, mittag_leffler; "
            "mittag_leffler(MLParams(0.27, 1.4), -5.5); "
            "mittag_leffler(MLParams(0.5), -30.0); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_bridge_commands_load_no_numpy_ma(tmp_path):
    # the commutation nodes are built without np.unique, whose first call
    # imports numpy.ma
    args = ["verify-compatibility", "--n", "128", "--m-paths", "200", "--out", str(tmp_path)]
    code = (
        f"import sys; from fractime import cli; cli.main({args!r}); "
        "print('numpy.ma' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_benchmark_invocations_print_their_declared_checks(tmp_path, monkeypatch, capsys):
    # the benchmark passes --seed to every invocation and marks a run
    # incorrect when a report prints another number of check lines than
    # the invocation declares; its judge reads each in-process report
    from fractime import cli

    monkeypatch.syspath_prepend(str(_PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", _PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    # registered before it runs: its dataclasses look their module up there
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    for name, invocations in bench.WORKLOADS.items():
        for i, inv in enumerate(invocations):
            out_dir = str(tmp_path / f"{name}_{i}")
            argv = [*inv.args, "--seed", "42", "--out", out_dir]
            code = cli.main(argv)
            outcome = bench.judge(inv, argv, code, capsys.readouterr().out, out_dir)
            assert code in (0, 1), (argv, outcome.problems)
            assert len(outcome.report.checks) == inv.checks, (argv, outcome.problems)
            assert outcome.problems == [], argv


def test_verify_compatibility_samples_internal_time_once(tmp_path, monkeypatch, capsys):
    from fractime import cli, stochastic_time

    calls = []
    real = stochastic_time._path_rng

    def counting(seed, key):
        calls.append(key)
        return real(seed, key)

    monkeypatch.setattr(stochastic_time, "_path_rng", counting)
    code = cli.main(
        ["verify-compatibility", "--n", "128", "--m-paths", "200", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    # 200 paths are too few for the quartic gap to reach 10 stderr: exit 1
    assert code in (0, 1), out
    # one stream for the whole exact one-time-law sample
    assert len(calls) == 1
    assert sum(line.startswith("check [") for line in out.splitlines()) == 4
    gap_lines = (tmp_path / "quartic_gap.csv").read_text().splitlines()
    assert len(gap_lines) == 66
    # dH/dp = p/m commutes for every natural H, so only the U' gap is written
    assert gap_lines[0] == "t,gap_x,stderr_x"
