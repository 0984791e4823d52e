"""Command-line front end: configured experiments with CSV + text reports.

Each subcommand assembles an experiment from flags, an optional flat
key=value config file (flags win), and documented defaults, for the keys
its runner names as parameters plus seed and out, refusing any other; runs
it; writes the outputs it declared atomically into --out, all at once after it
returns; and prints a run report echoing the config, one pass/fail line per
check, every output file path, and the wall time.  Exit status is 0 iff all
checks pass, 1 when a check fails, 2 on configuration or validation errors,
and 3 on any other error.  Given the same config, outputs are
byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bridge import (
    _commutation_nodes,
    subordinate_flow,
    verify_compatibility,
    verify_stanislavsky,
)
from .dynamics import solve_fde
from .errors import ConfigError, FractimeError, GridError
from .fracops import FracOrder, caputo_left, caputo_right, embed_operator
from .grids import TimeGrid, Trajectory, write_csv, write_text
from .special import Z_MAX, MLParams, mittag_leffler
from .stochastic_time import (
    WaitingTimeLaw,
    ensemble_mean,
    exact_marginal_ensemble,
    inverse_subordinator_paths,
    ks_statistic,
    rescale_factor,
    scaling_samples,
)
from .systems import NaturalSystem, free_particle, harmonic, quartic
from .variational import (
    causal_el_residual,
    classical_el_operator,
    general_el_residual,
)
from .reports import Check, interior_max, interior_window, verdict

__all__ = ["main", "ExperimentConfig", "RunReport", "parse_config", "run_experiment"]

# the largest grid: frac-deriv peaks near 1.1 GB at n = 2^22 (312 MB at 2^20)
_MAX_N = 2**22


@dataclass(frozen=True)
class _Command:
    """A subcommand's runner, whose parameters after report name its keys, and its aliases."""

    run: Callable
    aliases: tuple = ()


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment run: each key's converted value."""

    kind: str
    values: dict


@dataclass
class RunReport:
    """Outcome of one experiment: config echo, Checks, outputs, duration.

    A runner declares each file it writes in outputs, in order: a table is
    (name, header, columns), a text file (name, lines).  run_experiment
    writes them into config.out once the runner returns, and files lists
    their paths.
    """

    config: ExperimentConfig
    checks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    files: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    duration: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"experiment: {self.config.kind}", "config:"]
        lines.extend(f"  {key} = {value}" for key, value in self.config.values.items())
        lines.extend(self.notes)
        lines.extend(c.line() for c in self.checks)
        if self.files:
            lines.append("files:")
            lines.extend(f"  {p}" for p in self.files)
        lines.append(f"duration: {self.duration:.2f} s")
        lines.append(f"overall: {verdict(self.checks)}")
        return "\n".join(lines)


def _read_config_file(path: str, kind: str, keys: list) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        why = "not found" if isinstance(exc, FileNotFoundError) else "not readable as UTF-8 text"
        raise ConfigError(f"config file {why}: {path}") from None
    raw = {}
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got '{text}'")
        key, value = text.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ConfigError(
                f"{path}:{lineno}: unknown key '{key}' for {kind}, which takes {', '.join(keys)}"
            )
        raw[key] = value.strip()
    return raw


def _to_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got '{text}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got '{text}'")
    return value


def _to_int(key: str, text: str) -> int:
    try:
        return int(str(text), 10)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got '{text}'") from None


def _to_text(key: str, text: str) -> str:
    return text


# every key a command can take: key -> (default, converter from text); a
# None default stays None, for the runner to refuse or fill in
_KEYS = {
    "alpha": ("0.5", _to_float),
    "a": ("0.0", _to_float),
    "b": ("2.0", _to_float),
    "n": ("2048", _to_int),
    "m_paths": ("10000", _to_int),
    "seed": ("42", _to_int),
    "system": ("harmonic", _to_text),
    "out": (".", _to_text),
    "x0": ("1", _to_float),
    "p0": ("0", _to_float),
    "beta": ("1.0", _to_float),
    "z": (None, _to_float),
    "function": ("t2", _to_text),
    "tau_step": (None, _to_float),
    "c": ("10000", _to_float),
    "scale": ("1.0", _to_float),
}


def _reads(run: Callable) -> list:
    """The keys a runner reads: its parameters after report."""
    return list(inspect.signature(run).parameters)[1:]


def _keys(kind: str) -> list:
    """The keys a command takes: its runner's, then seed and out.  The echo
    must list every flag the benchmark passes: perfbench/run.py passes --seed
    to every command, and its smoke test --m-paths to the three that draw
    nothing as well as to the two that do."""
    unread = ["m_paths"] if kind in ("frac-deriv", "solve-fde", "verify-coherence") else []
    return list(dict.fromkeys([*_reads(_COMMANDS[kind].run), *unread, "seed", "out"]))


def parse_config(ns: argparse.Namespace) -> ExperimentConfig:
    """Merge flags over config-file values over defaults and validate."""
    kind = ns.kind
    keys = _keys(kind)
    file_values = _read_config_file(ns.config, kind, keys) if ns.config else {}
    flags = {key: text for key, text in vars(ns).items() if key in keys and text is not None}
    texts = {key: _KEYS[key][0] for key in keys} | file_values | flags
    values = {k: None if text is None else _KEYS[k][1](k, text) for k, text in texts.items()}
    # the internal-time commands take no a: their grids start at 0
    a, b = values.get("a", 0.0), values.get("b", math.inf)
    if b <= a:
        why = f"exceed a, got a = {a}, b = {b}" if "a" in values else f"be positive, got b = {b}"
        raise ConfigError(f"b must {why}")
    n = values.get("n", 2)
    if n < 2:
        raise ConfigError(f"n must be at least 2, got {n}")
    if n > _MAX_N:
        raise ConfigError(f"n must be at most {_MAX_N}, got {n}")
    if values.get("m_paths", 2) < 2:
        raise ConfigError(f"m-paths must be at least 2, got {values['m_paths']}")
    if values["seed"] < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {values['seed']}")
    # out's first existing ancestor must be a directory, so the writes after
    # the run can create the rest; nothing is created here
    out = parent = values["out"]
    while parent and not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if not out or not os.path.isdir(parent or "."):
        raise ConfigError(f"out must be a directory or a path that can be one, got '{out}'")
    return ExperimentConfig(kind, values)


_OSCILLATOR_WHAT = f"max dev over t^2a in [0, {Z_MAX:g}]"


def _oscillator(sol, y0, m: float, omega: float) -> list:
    """E_2a(-t^2a): harmonic(1, 1) from x0 = 1, p0 = 0 at a = 0, on the
    nodes with t^2a <= Z_MAX, where E_2a is validated."""
    if (m, omega) != (1.0, 1.0) or sol.grid.a != 0.0 or not np.array_equal(y0, [1.0, 0.0]):
        return []
    alpha, n = sol.alpha.alpha, sol.grid.n
    params = MLParams(2.0 * alpha)
    # t^2a increases with t, so the nodes in range are a prefix
    z = [-(t ** (2.0 * alpha)) for t in sol.grid.nodes()]
    exact = np.array([mittag_leffler(params, zj) for zj in z if zj >= -Z_MAX])
    dev = float(np.abs(sol.y.values[: len(exact), 0] - exact).max())
    tol = 5e-4 if n >= 1024 else 5e-4 * (1024.0 / n) ** (2.0 - alpha)
    return [Check("matches Mittag-Leffler oscillator solution", dev, "<=", tol, _OSCILLATOR_WHAT)]


def _drift(sol, y0, m: float) -> list:
    """x0 + p0/m t^a/Gamma(1+a): the free particle from any y0 at a = 0."""
    if sol.grid.a != 0.0:
        return []
    alpha = sol.alpha.alpha
    exact = y0[0] + y0[1] / m * sol.grid.nodes() ** alpha / math.gamma(1.0 + alpha)
    dev = float(np.abs(sol.y.values[:, 0] - exact).max())
    return [Check("matches power-law drift solution", dev, "<=", 1e-10, "max dev")]


# system name -> (factory, the checks of its solve-fde closed form or None);
# a form reads the solution, y0 and every bound parameter, defaults included
_SYSTEMS = {
    "free-particle": (free_particle, _drift),
    "harmonic": (harmonic, _oscillator),
    "quartic": (quartic, None),
}


def _resolve_system(text: str):
    """(system, its bound parameters, its closed form) of a system string:
    free-particle | harmonic(m, omega) | quartic(lambda)."""
    text = text.strip()
    name, paren, args = text.partition("(")
    if paren and not text.endswith(")"):
        raise ConfigError(f"unbalanced parentheses in system '{text}'")
    name, args = name.strip(), args[:-1]
    named, order = [], []
    if args.strip():
        for part in args.split(","):
            part = part.strip()
            if "=" in part:
                key, val = part.split("=", 1)
                key = key.strip().replace("lambda", "lam")
                named.append((key, _to_float(f"system parameter {key}", val.strip())))
            else:
                order.append(_to_float("system parameter", part))
    if name not in _SYSTEMS:
        raise ConfigError(
            f"unknown system '{name}'; expected free-particle | harmonic(m, omega) | quartic(lambda)"
        )
    factory, form = _SYSTEMS[name]
    params = _bind(order, named, factory)
    return factory(**params), params, form


def parse_system(text: str) -> NaturalSystem:
    """Named built-ins: free-particle | harmonic(m, omega) | quartic(lambda)."""
    return _resolve_system(text)[0]


def _bind(positional, named, factory) -> dict:
    """The factory's keyword defaults, overridden by position, then by
    (name, value) pairs; each parameter is set at most once."""
    params = {k: p.default for k, p in inspect.signature(factory).parameters.items()}
    names = list(params)
    if len(positional) > len(names):
        raise ConfigError(f"too many system parameters; expected at most {names}")
    given = names[: len(positional)] + [key for key, _ in named]
    for key in given:
        if key not in names:
            raise ConfigError(f"unknown system parameter '{key}'; expected {names}")
        if given.count(key) > 1:
            raise ConfigError(f"system parameter {key} is set twice")
    params.update([*zip(names, positional), *named])
    for key, value in params.items():
        if not value > 0.0:
            raise ConfigError(f"system parameter {key} must be positive, got {value}")
    return params


def _sample(alpha, b, n, m_paths, seed):
    """The run's one internal-time sample on its grid: the exact one-time
    law, since every check of the bridge reads one node at a time."""
    return exact_marginal_ensemble(FracOrder(alpha), TimeGrid(0.0, b, n), m_paths, seed=seed)


# ---------------------------------------------------------------- runners


def _run_ml(report, alpha, beta, z) -> None:
    if z is None:
        raise ConfigError("z is required for ml (flag --z or config key z)")
    params = MLParams(alpha, beta)
    value = mittag_leffler(params, z)
    report.notes.append(f"{value:.10f}")
    report.outputs.append(
        ("ml.csv", ["alpha", "beta", "z", "value"], [[alpha], [beta], [z], [value]])
    )
    report.checks.append(Check("evaluation finite", abs(value), "<", math.inf, "|E_a,b(z)|"))


def _d_line(s, a, alpha, h):
    """D^a t from a, with s = t - a: the power rule, met to roundoff."""
    return s ** (1.0 - alpha) / math.gamma(2.0 - alpha), 1e-10


def _d_square(s, a, alpha, h):
    """D^a t^2 from a, with t^2 = s^2 + 2as + a^2: met to the L1 scheme's
    O(h^(2-a))."""
    square = 2.0 * s ** (2.0 - alpha) / math.gamma(3.0 - alpha)
    return square + 2.0 * a * _d_line(s, a, alpha, h)[0], 50.0 * h ** (2.0 - alpha)


# name -> (function, its exact left Caputo derivative from a with the
# tolerance, (t - a, a, alpha, h) -> (values, tol); None: the runner checks
# self-convergence under grid refinement instead)
_FUNCTIONS = {
    "t": (lambda t: t, _d_line),
    "t2": (lambda t: t * t, _d_square),
    "sin": (np.sin, None),
    "cos": (np.cos, None),
    "exp": (np.exp, None),
}


def _run_frac_deriv(report, alpha, a, b, n, function) -> None:
    if function not in _FUNCTIONS:
        raise ConfigError(f"function must be one of {sorted(_FUNCTIONS)}, got '{function}'")
    fn, exact = _FUNCTIONS[function]
    if exact is None and n < 4:
        raise ConfigError(
            f"n must be at least 4 for function {function}, whose self-convergence"
            f" check halves the grid; got {n}"
        )
    order = FracOrder(alpha)
    grid = TimeGrid(a, b, n)
    span = f"[a, b] = [{a:g}, {b:g}]"
    with np.errstate(over="ignore"):
        values = fn(grid.nodes())
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"function {function} overflows a double on {span}")

    def derivative(operator, traj: Trajectory) -> np.ndarray:
        # the derivative of finite samples may still exceed the largest double
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return operator(traj, order).values[:, 0]
        except GridError:
            raise ConfigError(
                f"the derivative of function {function} overflows a double on {span}; lower b"
            ) from None

    traj = Trajectory(grid, values)
    left = derivative(caputo_left, traj)
    right = derivative(caputo_right, traj)
    report.outputs.append(("frac_deriv.csv", ["t", "left", "right"], [grid.nodes(), left, right]))

    flat = float(np.abs(caputo_left(Trajectory.constant(grid, 1.0), order).values).max())
    report.checks.append(Check("annihilates constants", flat, "==", 0.0, "max |D^a 1|"))

    if exact is not None:
        w = interior_window(n)
        oracle, tol = exact(grid.nodes()[w : n + 1 - w] - a, a, alpha, grid.h)
        dev = float(np.abs(left[w : n + 1 - w] - oracle).max())
        report.checks.append(Check("matches power-rule oracle", dev, "<=", tol, "interior max dev"))
    else:
        # odd n: the coarse grid ends at fine node n - 1, so both read the
        # same times (a Caputo value at t depends only on [a, t])
        end = b if n % 2 == 0 else grid.nodes()[n - 1]
        half = TimeGrid(a, end, n // 2)
        coarse = derivative(caputo_left, Trajectory.from_callable(half, fn))
        wc = interior_window(n // 2)
        dev = float(np.abs(left[::2][wc : n // 2 + 1 - wc] - coarse[wc : n // 2 + 1 - wc]).max())
        try:
            tol = 100.0 * half.h ** (2.0 - alpha)
        except OverflowError:
            tol = math.inf
        if tol == math.inf:
            raise ConfigError(
                f"the self-convergence budget 100 h^(2 - alpha) of function {function}"
                f" overflows a double for a = {a}, b = {b}; narrow [a, b]"
            )
        what = "interior max |D_n - D_n/2|"
        report.checks.append(Check("self-convergence under grid refinement", dev, "<=", tol, what))


def _run_solve_fde(report, alpha, a, b, n, system, x0, p0) -> None:
    H, params, form = _resolve_system(system)
    order = FracOrder(alpha)
    grid = TimeGrid(a, b, n)
    y0 = (x0, p0)
    sol = solve_fde(H, y0, grid, order)
    header = ["t", "x0", "x1"]
    meta = [
        f"alpha={alpha:.17g}",
        f"n={n}",
        f"a={a:.17g}",
        f"b={b:.17g}",
        "scheme=fractional-adams",
    ]
    report.outputs += [
        ("solution.csv", header, [grid.nodes(), *sol.y.values.T]),
        ("solution.csv.meta", meta),
    ]
    peak = float(np.abs(sol.y.values).max())
    report.checks.append(Check("solution finite", peak, "<", math.inf, "max |y|"))
    if form is not None:
        report.checks += form(sol, y0, **params)


def _run_subordinator(report, alpha, b, n, m_paths, tau_step, seed) -> None:
    ens = inverse_subordinator_paths(
        FracOrder(alpha), TimeGrid(0.0, b, n), m_paths, tau_step=tau_step, seed=seed
    )
    stats = ensemble_mean(ens)
    t = ens.t_grid.nodes()
    # the grid and the first 16 paths (all when fewer)
    k = min(16, ens.m_paths)
    report.outputs += [
        ("subordinator_paths.csv", ["t"] + [f"path{i}" for i in range(k)], [t, *ens.paths[:k]]),
        ("subordinator_stats.csv", ["t", "mean", "stderr"], [t, stats.mean, stats.stderr]),
    ]
    report.notes.append(f"tau_step = {ens.tau_step:.6g}")

    s0 = float(np.abs(ens.paths[:, 0]).max())
    # row by row: an ensemble-sized np.diff would double the peak memory
    min_step = min(float(np.diff(row).min()) for row in ens.paths)
    oracle = b**alpha / math.gamma(1.0 + alpha)
    dev = float(abs(stats.mean[-1] - oracle))
    budget = float(3.0 * stats.stderr[-1] + ens.tau_step)
    report.checks += [
        Check("S(0) = 0 on every path", s0, "==", 0.0, "max |S(0)|"),
        Check("paths nondecreasing", min_step, ">=", 0.0, "min increment"),
        Check(
            "mean internal time matches t^a/Gamma(1+a)",
            dev,
            "<=",
            budget,
            "|mean S(b) - b^a/Gamma(1+a)|",
        ),
    ]


def _run_scaling_limit(report, alpha, m_paths, c, scale, seed) -> None:
    law = WaitingTimeLaw(FracOrder(alpha), scale)
    counts, s1 = scaling_samples(law, c, m_paths, seed=seed)
    b_c = rescale_factor(counts, s1)
    ks = ks_statistic(counts / b_c, s1)
    probs = np.linspace(0.0, 1.0, 101)
    report.outputs.append(
        (
            "scaling_limit.csv",
            ["p", "rescaled_counts_quantile", "internal_time_quantile"],
            [probs, np.quantile(counts / b_c, probs), np.quantile(s1, probs)],
        )
    )
    report.notes.append(f"b(c) = {b_c:.6g}, KS = {ks:.4f}")
    name = "rescaled counting process matches internal time"
    report.checks.append(Check(name, ks, "<", 0.05, "two-sample KS"))


def _declare_comparison(report: RunReport, tables, stem: str) -> None:
    """A bridge verification's tables as <stem>_<suffix>.csv, then
    <stem>_summary.txt: every check of the run and their verdict."""
    for suffix, header, cols in tables:
        report.outputs.append((f"{stem}_{suffix}.csv", header, cols))
    lines = [c.line() for c in report.checks] + [f"verdict: {verdict(report.checks)}"]
    report.outputs.append((f"{stem}_summary.txt", lines))


def _run_verify_stanislavsky(report, alpha, b, n, m_paths, system, x0, p0, seed) -> None:
    rep = verify_stanislavsky(parse_system(system), (x0, p0), _sample(alpha, b, n, m_paths, seed))
    report.checks.extend(rep.checks)
    _declare_comparison(report, rep.tables, "stanislavsky")


def _run_verify_coherence(report, alpha, a, b, n, system, x0, p0) -> None:
    L = parse_system(system)
    if p0 == 0.0 and L.potential_grad(x0) == 0.0:
        what = "its solution is constant, so no residual separates causal from general"
        raise ConfigError(f"x0 = {x0}, p0 = {p0} is an equilibrium of {system}: {what}")
    order = FracOrder(alpha)
    grid = TimeGrid(a, b, n)
    sol = solve_fde(L, (x0, p0), grid, order)
    x = sol.x_part()
    causal = causal_el_residual(L, x, order)
    general = general_el_residual(L, x, order)
    embedded = embed_operator(classical_el_operator(L), order)(x)
    embed_gap = float(np.abs(causal.values - embedded.values).max())

    cols = [grid.nodes(), causal.values[:, 0], general.values[:, 0]]
    report.outputs.append(("coherence.csv", ["t", "causal0", "general0"], cols))

    causal_max, general_max = interior_max(causal), interior_max(general)
    ratio = general_max / max(causal_max, 1e-300)
    report.checks += [
        Check(
            "causal residual small on the fractional solution",
            causal_max,
            "<=",
            5e-3,
            "interior max",
        ),
        Check("general (acausal) residual stays large", general_max, ">=", 0.1, "interior max"),
        Check("causal/general separation", ratio, ">=", 10.0, "general/causal interior max"),
        Check(
            "causal equation equals embedded classical equation",
            embed_gap,
            "==",
            0.0,
            "max node gap",
        ),
    ]


def _run_verify_compatibility(report, alpha, b, n, m_paths, system, x0, p0, seed) -> None:
    ens = _sample(alpha, b, n, m_paths, seed)
    crep = verify_compatibility(parse_system(system), (x0, p0), ens)

    # its check reads only the commutation nodes, so only those are flowed
    at_nodes = ens.at(_commutation_nodes(ens.t_grid.n))
    cg = subordinate_flow(quartic(), (1.0, 0.0), at_nodes).commutation
    report.checks += [
        *crep.checks,
        Check(
            "quartic commutation gap statistically significant",
            cg.significance,
            ">",
            10.0,
            "max gap in stderr units",
        ),
    ]
    # after the quartic check, so the summary lists it too
    _declare_comparison(report, crep.tables, "compatibility")
    cols = [cg.t, cg.gap, cg.stderr]
    report.outputs.append(("quartic_gap.csv", ["t", "gap_x", "stderr_x"], cols))


_COMMANDS = {
    "ml-eval": _Command(_run_ml, aliases=("ml",)),
    "frac-deriv": _Command(_run_frac_deriv),
    "solve-fde": _Command(_run_solve_fde),
    "subordinator": _Command(_run_subordinator),
    "scaling-limit": _Command(_run_scaling_limit),
    "verify-stanislavsky": _Command(_run_verify_stanislavsky),
    "verify-coherence": _Command(_run_verify_coherence),
    "verify-compatibility": _Command(_run_verify_compatibility),
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run a validated config; returns the report (raises FractimeError)."""
    report = RunReport(config=cfg)
    start = time.perf_counter()
    run = _COMMANDS[cfg.kind].run
    run(report, **{key: cfg.values[key] for key in _reads(run)})
    # only a runner that returned writes, and the writes count in duration
    out = cfg.values["out"]
    os.makedirs(out, exist_ok=True)
    for name, *body in report.outputs:
        path = os.path.join(out, name)
        (write_csv if len(body) == 2 else write_text)(path, *body)
        report.files.append(path)
    report.duration = time.perf_counter() - start
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractime",
        description="Fractional dynamics driven by stochastic internal time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, command in _COMMANDS.items():
        # no abbreviations: ml-eval would read --a as --alpha
        p = sub.add_parser(kind, aliases=list(command.aliases), allow_abbrev=False)
        p.set_defaults(kind=kind)
        for key in _keys(kind):
            p.add_argument(f"--{key.replace('_', '-')}", dest=key)
        p.add_argument("--config")
    return parser


def _join_numeric_values(argv: list) -> list:
    """argv with each "--key value" pair whose value parses as a float
    joined into "--key=value": argparse reads a value such as -1e3 as a flag."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_float(token):
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(_join_numeric_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        cfg = parse_config(ns)
        report = run_experiment(cfg)
    except FractimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means only that a check failed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
