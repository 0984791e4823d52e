"""Benchmark of the `fractime` command line tool, run from the repository root.

    python3 perfbench/run.py --workload mc_default --seed 42 --seconds 20 --trace 0

With ``--trace 0`` every invocation of the workload runs as a cold
subprocess of the CLI, one at a time, so interpreter start and
``import fractime`` count.  The workload is repeated until ``--seconds``
have passed, at least twice, and the end-to-end metrics are medians over
the repetitions:

    wall_s       sum of the invocations' wall times
    setup_s      sum of wall time minus the ``duration:`` the CLI reports
                 (interpreter start, imports, config parsing, teardown)
    cpu_s        sum of child user + system time (os.wait4)
    peak_rss_mb  largest child ru_maxrss
    pass_ratio   PASS check lines over checks declared; a crashed
                 invocation counts every check it declares as failed
    checks       checks declared, the base of pass_ratio

With ``--trace 1`` the same invocations run in-process under timing
wrappers installed by perfbench/tracer.py, and the per-layer metrics are
printed instead.  End-to-end numbers never come from traced runs.

Every report is parsed and checked: the config echo, each check line, the
files it lists (which must exist and be non-empty) and the overall verdict,
which must agree with the exit status.  Output files must be byte-identical
across repetitions of a run; their sha256 digests are printed and kept in
the run record under .perfbench/results/ for comparison across commits.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (invocations run), ``failed`` (invocations that
crashed or timed out) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from tracer import PER_LAYER_UNITS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")

# Same entry as the installed `fractime` console script.
CLI = "import sys; from fractime.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fractime.cli; "
    "print(time.perf_counter() - t)"
)
WARMUP = ("ml-eval", "--z", "1")
RUN_DEADLINE_S = 170.0
# A workload whose repetition outlasts --seconds still runs twice, so one
# repetition slowed by the machine moves the reported median by half as much.
MIN_REPS = 2
IMPORT_PROBES = 3


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand and flags (without --seed/--out) and the
    number of check lines its report declares."""

    args: tuple
    checks: int


# Sizes are the CLI defaults unless stated; BENCHMARK.json says why each
# workload is there.
WORKLOADS = {
    "mc_default": (Invocation(("verify-stanislavsky",), 1),),
    "mc_compat": (Invocation(("verify-compatibility",), 4),),
    "fde_long": (
        Invocation(("verify-coherence", "--n", "32768"), 4),
        Invocation(("frac-deriv", "--function", "sin", "--n", "65536"), 2),
    ),
    "ml_oracle": (
        Invocation(("solve-fde", "--alpha", "0.4", "--b", "10"), 2),
        Invocation(("solve-fde", "--n", "16384"), 2),
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "checks": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ------------------------------------------------------------ report parsing


@dataclass
class Report:
    """A parsed `fractime` run report."""

    kind: str = ""
    config: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, passed)
    files: list = field(default_factory=list)
    duration: float | None = None
    overall: str | None = None


def parse_report(text: str) -> Report:
    """Parse the CLI's report; fields that are absent stay empty or None."""
    rep = Report()
    section = None
    for line in text.splitlines():
        if line.startswith("experiment: "):
            rep.kind = line[len("experiment: ") :].strip()
            section = None
        elif line == "config:":
            section = "config"
        elif line == "files:":
            section = "files"
        elif line.startswith("check [PASS] ") or line.startswith("check [FAIL] "):
            name = line[len("check [PASS] ") :].split(": ", 1)[0]
            rep.checks.append((name, line.startswith("check [PASS]")))
            section = None
        elif line.startswith("duration: ") and line.endswith(" s"):
            rep.duration = float(line[len("duration: ") : -2])
            section = None
        elif line.startswith("overall: "):
            rep.overall = line[len("overall: ") :].strip()
            section = None
        elif line.startswith("  ") and section == "files":
            rep.files.append(line.strip())
        elif line.startswith("  ") and section == "config":
            _parse_echo(line.strip(), rep.config)
        else:
            section = None
    return rep


def _parse_echo(text: str, config: dict) -> None:
    if text.startswith("grid: "):
        for part in text[len("grid: ") :].split(","):
            key, _, value = part.partition("=")
            config[key.strip()] = value.strip()
    elif " = " in text:
        key, _, value = text.partition(" = ")
        config[key.strip()] = value.strip()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Outcome:
    """What one invocation did, judged from its exit status and report."""

    argv: list
    declared: int
    exit_code: int | None
    report: Report
    crashed: bool
    problems: list
    hashes: dict

    @property
    def passed_checks(self) -> int:
        return 0 if self.crashed else sum(ok for _, ok in self.report.checks)


def judge(inv: Invocation, argv: list, exit_code, stdout: str, out_dir: str) -> Outcome:
    """Check an invocation's report against its argv, exit status and files.

    A crash (exit status other than 0 or 1, a timeout, or no ``overall:``
    line) fails every check the invocation declares.  Any other mismatch
    is a problem that makes the run incorrect.
    """
    rep = parse_report(stdout)
    crashed = exit_code not in (0, 1) or rep.overall is None
    problems = []
    hashes = {}
    if crashed:
        problems.append(f"crashed: exit {exit_code}, overall line {'present' if rep.overall else 'missing'}")
        return Outcome(argv, inv.checks, exit_code, rep, True, problems, hashes)
    if rep.kind != argv[0]:
        problems.append(f"experiment {rep.kind}, ran {argv[0]}")
    if len(rep.checks) != inv.checks:
        problems.append(f"{len(rep.checks)} check lines, {inv.checks} declared")
    verdict = "PASS" if all(ok for _, ok in rep.checks) else "FAIL"
    if rep.overall != verdict:
        problems.append(f"overall {rep.overall} but checks say {verdict}")
    if exit_code != (0 if rep.overall == "PASS" else 1):
        problems.append(f"exit {exit_code} with overall {rep.overall}")
    if rep.duration is None:
        problems.append("no duration line")
    problems.extend(_echo_problems(argv, rep.config))
    if not rep.files:
        problems.append("no output files listed")
    for path in rep.files:
        full = os.path.join(ROOT, path)
        if os.path.dirname(os.path.abspath(full)) != os.path.abspath(out_dir):
            problems.append(f"file outside --out: {path}")
        elif not os.path.isfile(full) or os.path.getsize(full) == 0:
            problems.append(f"missing or empty output: {path}")
        else:
            hashes[os.path.basename(path)] = sha256_file(full)
    return Outcome(argv, inv.checks, exit_code, rep, False, problems, hashes)


def _echo_problems(argv: list, config: dict) -> list:
    problems = []
    flags = dict(zip(argv[1::2], argv[2::2]))
    for flag, value in flags.items():
        key = flag[2:].replace("-", "_")
        echoed = config.get(key)
        if echoed is None:
            problems.append(f"config echo lacks {key}")
        elif key == "out":
            if os.path.abspath(os.path.join(ROOT, echoed)) != os.path.abspath(os.path.join(ROOT, value)):
                problems.append(f"echo out = {echoed}, passed {value}")
        elif _as_number(echoed) != _as_number(value):
            problems.append(f"echo {key} = {echoed}, passed {value}")
    return problems


def _as_number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


# ------------------------------------------------------------ cold subprocesses


@dataclass
class Cold:
    wall: float
    cpu: float
    maxrss_kb: int
    exit_code: int | None
    stdout: str
    stderr: str


def run_cold(cmd: list, env: dict, timeout: float) -> Cold:
    """Run cmd to completion; wall time and rusage come from os.wait4."""
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "stdout.txt"), "w+") as out, open(
        os.path.join(WORK, "stderr.txt"), "w+"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    return Cold(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        exit_code=code if code >= 0 else None,
        stdout=stdout,
        stderr=stderr,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def invocation_argv(inv: Invocation, seed: int, out_dir: str) -> list:
    return [*inv.args, "--seed", str(seed), "--out", os.path.relpath(out_dir, ROOT)]


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure_rep(invocations, seed: int, out_root: str, deadline: float) -> tuple:
    """One repetition: every invocation once, cold. Returns (values, outcomes)."""
    env = child_env()
    colds, outcomes = [], []
    for i, inv in enumerate(invocations):
        out_dir = fresh_dir(os.path.join(out_root, str(i)))
        argv = invocation_argv(inv, seed, out_dir)
        cold = run_cold([sys.executable, "-c", CLI, *argv], env, deadline - time.perf_counter())
        outcome = judge(inv, argv, cold.exit_code, cold.stdout, out_dir)
        if outcome.crashed and cold.stderr.strip():
            outcome.problems.append("stderr: " + cold.stderr.strip().splitlines()[-1])
        colds.append(cold)
        outcomes.append(outcome)
    return rep_values(colds, outcomes), outcomes


def rep_values(colds: list, outcomes: list) -> dict:
    """End-to-end values of one repetition from its cold runs and outcomes."""
    declared = sum(o.declared for o in outcomes)
    return {
        "wall_s": sum(c.wall for c in colds),
        "setup_s": sum(c.wall - (o.report.duration or 0.0) for c, o in zip(colds, outcomes)),
        "cpu_s": sum(c.cpu for c in colds),
        "peak_rss_mb": max(c.maxrss_kb for c in colds) * 1024 / 1e6,
        "pass_ratio": sum(o.passed_checks for o in outcomes) / declared,
        "checks": declared,
    }


# ------------------------------------------------------------ provenance


def provenance(workload: str, seed: int, argvs: list) -> dict:
    from importlib import metadata

    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "versions": versions,
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(os.path.join(SRC, "fractime")),
        "argv": [["fractime", *a] for a in argvs],
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _tree_digest(package_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# ------------------------------------------------------------ the two modes


def end_to_end(name: str, seed: int, seconds: float, invocations=None) -> tuple:
    """Untraced cold runs of the workload, repeated for `seconds`."""
    invocations = invocations or WORKLOADS[name]
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    out_root = os.path.join(WORK, "out", name)
    # fills the bytecode and page caches; users do not pay this on every run
    warmup_out = os.path.relpath(fresh_dir(os.path.join(out_root, "warmup")), ROOT)
    run_cold([sys.executable, "-c", CLI, *WARMUP, "--out", warmup_out], child_env(), 60.0)
    t0 = time.perf_counter()
    reps, outcomes_per_rep = [], []
    while True:
        rep_start = time.perf_counter()
        values, outcomes = measure_rep(invocations, seed, out_root, deadline)
        reps.append(values)
        outcomes_per_rep.append(outcomes)
        now = time.perf_counter()
        if (
            any(o.crashed for o in outcomes)
            or (len(reps) >= MIN_REPS and now - t0 >= seconds)
            or now + (now - rep_start) > deadline
        ):
            break
    flat = [o for rep in outcomes_per_rep for o in rep]
    problems = [f"{' '.join(o.argv)}: {p}" for o in flat for p in o.problems]
    last = outcomes_per_rep[-1]
    for i, outcome in enumerate(last):
        for other in outcomes_per_rep[:-1]:
            if other[i].hashes != outcome.hashes and not outcome.crashed:
                problems.append(f"{' '.join(outcome.argv)}: outputs differ between repetitions")
                break
    metrics = {
        key: {"value": statistics.median(r[key] for r in reps), "unit": unit}
        for key, unit in END_TO_END_UNITS.items()
    }
    record = {
        "provenance": provenance(name, seed, [o.argv for o in last]),
        "repetitions": reps,
        "invocations": invocation_records(last),
        "problems": problems,
        "elapsed_s": time.perf_counter() - started,
    }
    crashed = sum(o.crashed for o in flat)
    result = {
        "correct": not problems and crashed == 0,
        "attempted": len(flat),
        "failed": crashed,
        "metrics": metrics,
    }
    return result, record


def traced(name: str, seed: int, invocations=None) -> tuple:
    """Per-layer metrics from in-process runs of the workload's invocations."""
    invocations = invocations or WORKLOADS[name]
    started = time.perf_counter()
    env = child_env()
    out_dirs = [os.path.join(WORK, "trace", name, str(i)) for i in range(len(invocations))]
    argvs = [invocation_argv(inv, seed, d) for inv, d in zip(invocations, out_dirs)]
    import_times = []
    for _ in range(IMPORT_PROBES):
        probe = run_cold([sys.executable, "-c", IMPORT_PROBE], env, 60.0)
        if probe.exit_code != 0:
            raise BenchError("import probe failed: " + probe.stderr.strip()[-500:])
        import_times.append(float(probe.stdout))

    runs, outcomes, problems = {}, {}, []
    for mode in ("0", "1"):
        for out_dir in out_dirs:
            fresh_dir(out_dir)
        cold = run_cold(
            [sys.executable, TRACER, mode, json.dumps(argvs)],
            env,
            started + RUN_DEADLINE_S - time.perf_counter(),
        )
        lines = cold.stdout.strip().splitlines()
        if cold.exit_code != 0 or not lines:
            raise BenchError(f"tracer (traced={mode}) failed: {cold.stderr.strip()[-800:]}")
        runs[mode] = json.loads(lines[-1])
        outcomes[mode] = []
        for inv, argv, out_dir, res in zip(invocations, argvs, out_dirs, runs[mode]["invocations"]):
            outcome = judge(inv, argv, res["exit"], res["stdout"], out_dir)
            outcomes[mode].append(outcome)
            problems.extend(f"{' '.join(argv)}: {p}" for p in outcome.problems)
    for plain_o, traced_o in zip(outcomes["0"], outcomes["1"]):
        if plain_o.hashes != traced_o.hashes:
            problems.append(f"{' '.join(traced_o.argv)}: outputs differ with tracing on")
    plain, trace = runs["0"], runs["1"]
    layers = dict(trace["layers"])
    layers["cli.import_s"] = statistics.median(import_times)
    layers["trace.overhead_s"] = trace["main_s"] - plain["main_s"]
    metrics = {
        key: {"value": layers[key], "unit": unit} for key, unit in PER_LAYER_UNITS.items()
    }
    record = {
        "provenance": provenance(name, seed, argvs),
        "invocations": invocation_records(outcomes["1"]),
        "import_probes_s": import_times,
        "untraced_main_s": plain["main_s"],
        "traced_main_s": trace["main_s"],
        "ml_latency": trace["ml_latency"],
        "problems": problems,
        "elapsed_s": time.perf_counter() - started,
    }
    flat = outcomes["0"] + outcomes["1"]
    crashed = sum(o.crashed for o in flat)
    result = {
        "correct": not problems and crashed == 0,
        "attempted": len(flat),
        "failed": crashed,
        "metrics": metrics,
    }
    return result, record


def invocation_records(outcomes: list) -> list:
    return [
        {
            "argv": o.argv,
            "exit": o.exit_code,
            "checks": [[n, "PASS" if ok else "FAIL"] for n, ok in o.report.checks],
            "duration": o.report.duration,
            "sha256": o.hashes,
        }
        for o in outcomes
    ]


# ------------------------------------------------------------ entry point


def _preflight(args) -> None:
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        raise BenchError("--seed must be nonnegative")
    if not args.seconds > 0:
        raise BenchError("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "fractime", "cli.py")):
        raise BenchError(f"no fractime sources under {SRC}; run from a checkout of the repository")


def print_summary(result: dict, record: dict) -> None:
    prov = record["provenance"]
    print(
        f"workload {prov['workload']} seed {prov['seed']} | {prov['nproc']} cpu {prov['cpu_model']}"
        f" | load {prov['loadavg_start'][0]:.2f} | {json.dumps(prov['versions'])}"
        f" | git {prov['git_sha']} src {prov['src_sha256'][:12]}"
    )
    for inv in record.get("invocations", []):
        print("  $ fractime " + " ".join(inv["argv"]) + f"  (exit {inv['exit']})")
        for name, verdict in inv["checks"]:
            print(f"    check [{verdict}] {name}")
        for fname, digest in sorted(inv["sha256"].items()):
            print(f"    sha256 {digest}  {fname}")
    if "repetitions" in record:
        print(f"  repetitions: {len(record['repetitions'])}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _preflight(args)
        if args.trace:
            result, record = traced(args.workload, args.seed)
        else:
            result, record = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, **record}, fh, indent=1)
    print_summary(result, record)
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
