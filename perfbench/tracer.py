"""Per-layer timing of fractime CLI invocations, run in-process.

    PYTHONPATH=src python3 perfbench/tracer.py <traced 0|1> '<json list of argv lists>'

Runs ``fractime.cli.main(argv)`` for each argv and prints one JSON line.
With traced = 1, every public function of every ``fractime`` module is
replaced, at each module binding that refers to it, by a wrapper that
records a span (name, parent, start, end).  Modules import each other's
functions by name (``bridge`` holds its own ``inverse_subordinator_paths``,
``cli`` its own ``write_csv``), so patching only the defining module would
miss those calls.  The program's sources are not modified.

Spans stay in memory; per-layer metrics are computed from them when the
run ends.  A layer's self time is its span minus the spans of its wrapped
children.  The busy time of a group of functions counts only the spans
with no ancestor in the group, so nesting (caputo_right -> caputo_left)
is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import sys
import time
import traceback
import types

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.run_s": "s",
    "stochastic_time.sample_calls": "count",
    "stochastic_time.sample_s": "s",
    "stochastic_time.paths": "count",
    "stochastic_time.levels": "count",
    "stochastic_time.paths_bytes": "bytes",
    "bridge.flow_calls": "count",
    "bridge.flow_self_s": "s",
    "bridge.path_node_evals": "count",
    "bridge.kept_bytes": "bytes",
    "bridge.commutation_s": "s",
    "bridge.check_self_s": "s",
    "dynamics.classical_s": "s",
    "dynamics.classical_steps": "count",
    "dynamics.fde_s": "s",
    "dynamics.fde_steps": "count",
    "dynamics.fde_history_madds": "count",
    "fracops.caputo_calls": "count",
    "fracops.caputo_s": "s",
    "fracops.rl_s": "s",
    "fracops.conv_madds": "count",
    "variational.el_calls": "count",
    "variational.el_self_s": "s",
    "special.ml_calls": "count",
    "special.ml_s": "s",
    "special.ml_p50_ms": "ms",
    "special.ml_max_ms": "ms",
    "special.ml_calls_over_1ms": "count",
    "grids.csv_calls": "count",
    "grids.csv_s": "s",
    "grids.bytes_written": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

RUN = "cli.run_experiment"
SAMPLER = "stochastic_time.inverse_subordinator_paths"
FLOW = "bridge.subordinate_flow"
CHECKS = ("bridge.verify_stanislavsky", "bridge.verify_compatibility")
COMMUTATION = "bridge.commutation_gap"
CLASSICAL = "dynamics.solve_classical"
FDE = ("dynamics.solve_fde", "dynamics.solve_fde_system")
CAPUTO = ("fracops.caputo_left", "fracops.caputo_right")
RL = ("fracops.rl_integral_left", "fracops.rl_integral_right")
EL = ("variational.causal_el_residual", "variational.general_el_residual")
ML = "special.mittag_leffler"
CSV = "grids.write_csv"


class Spans:
    """Nested spans of one thread: parallel lists indexed by span id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name, self.parent, self.start, self.end = [], [], [], []
        self._open = []

    def open(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(self.clock())
        self.end.append(None)
        self._open.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._open.pop()

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]

    def children_time(self) -> list:
        """Per span, the summed duration of its direct children."""
        total = [0.0] * len(self.name)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                total[parent] += self.duration(sid)
        return total

    def self_time(self, names) -> float:
        names = _as_set(names)
        child = self.children_time()
        return sum(
            self.duration(sid) - child[sid] for sid, n in enumerate(self.name) if n in names
        )

    def outermost(self, names) -> list:
        """Span ids named in `names` with no ancestor named in `names`."""
        names = _as_set(names)
        inside = [False] * len(self.name)  # some ancestor or the span itself is in names
        ids = []
        for sid, n in enumerate(self.name):  # parents precede children
            parent = self.parent[sid]
            above = inside[parent] if parent >= 0 else False
            inside[sid] = above or n in names
            if n in names and not above:
                ids.append(sid)
        return ids

    def busy(self, names) -> float:
        return sum(self.duration(sid) for sid in self.outermost(names))

    def coverage(self, top: str) -> float:
        """Share of the `top` spans' time covered by their direct children."""
        child = self.children_time()
        ids = [sid for sid, n in enumerate(self.name) if n == top]
        total = sum(self.duration(sid) for sid in ids)
        return sum(child[sid] for sid in ids) / total if total > 0 else 0.0


def _as_set(names) -> set:
    return {names} if isinstance(names, str) else set(names)


class Tracer:
    """Wraps fractime's public functions and counts work at their returns."""

    def __init__(self):
        self.spans = Spans()
        self.counts = dict.fromkeys(
            (
                "paths",
                "levels",
                "paths_bytes",
                "path_node_evals",
                "kept_bytes",
                "classical_steps",
                "fde_steps",
                "fde_history_madds",
                "conv_madds",
                "bytes_written",
            ),
            0,
        )
        self.ml_calls = []  # (alpha, beta, z, seconds) per call
        self.on_return = {
            SAMPLER: self._sampled,
            FLOW: self._flowed,
            CLASSICAL: self._classical,
            "dynamics.solve_fde": self._fde,
            "fracops.caputo_left": self._convolved,
            "fracops.rl_integral_left": self._convolved,
            CSV: self._written,
            ML: self._evaluated,
        }

    def install(self, package: str = "fractime") -> int:
        """Replace every module binding of each public package function."""
        wrapped = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith(package + ".")
                    or value.__name__.startswith("_")
                ):
                    continue
                if value not in wrapped:
                    layer = value.__module__.split(".", 1)[1]
                    wrapped[value] = self._wrap(value, f"{layer}.{value.__qualname__}")
                setattr(module, attr, wrapped[value])
        return len(wrapped)

    def _wrap(self, fn, name: str):
        spans = self.spans
        hook = self.on_return.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = spans.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.close(sid)
            if hook is not None:
                hook(args, kwargs, result, spans.duration(sid))
            return result

        return timed

    # counts read from arguments and results at layer boundaries

    def _sampled(self, args, kwargs, ens, seconds) -> None:
        ends = ens.paths[:, -1] / ens.tau_step
        self.counts["paths"] += ens.m_paths
        self.counts["levels"] += int(sum(round(float(v)) for v in ends))
        self.counts["paths_bytes"] += ens.m_paths * ens.paths.shape[1] * 8

    def _flowed(self, args, kwargs, obs, seconds) -> None:
        nodes, d = obs.mean_x.shape
        self.counts["path_node_evals"] += obs.m_paths * nodes * 2 * d
        if obs.path_x is not None:
            self.counts["kept_bytes"] += obs.path_x.nbytes + obs.path_p.nbytes

    def _classical(self, args, kwargs, traj, seconds) -> None:
        self.counts["classical_steps"] += traj.grid.n

    def _fde(self, args, kwargs, sol, seconds) -> None:
        n, dim = sol.grid.n, sol.y.values.shape[1]
        self.counts["fde_steps"] += n
        self.counts["fde_history_madds"] += dim * n * (n + 1)

    def _convolved(self, args, kwargs, traj, seconds) -> None:
        n, cols = traj.grid.n, traj.values.shape[1]
        self.counts["conv_madds"] += cols * n * (n + 1) // 2

    def _written(self, args, kwargs, result, seconds) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["bytes_written"] += os.path.getsize(path)

    def _evaluated(self, args, kwargs, value, seconds) -> None:
        p, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
        self.ml_calls.append((p.alpha, p.beta, float(z), seconds))

    def layers(self) -> dict:
        """Per-layer metrics, except cli.import_s and trace.overhead_s."""
        s, c = self.spans, self.counts
        calls = lambda names: len(s.outermost(names))  # noqa: E731
        ml_ms = sorted(t * 1e3 for *_, t in self.ml_calls)
        return {
            "cli.run_s": s.busy(RUN),
            "stochastic_time.sample_calls": calls(SAMPLER),
            "stochastic_time.sample_s": s.busy(SAMPLER),
            "stochastic_time.paths": c["paths"],
            "stochastic_time.levels": c["levels"],
            "stochastic_time.paths_bytes": c["paths_bytes"],
            "bridge.flow_calls": calls(FLOW),
            "bridge.flow_self_s": s.self_time(FLOW),
            "bridge.path_node_evals": c["path_node_evals"],
            "bridge.kept_bytes": c["kept_bytes"],
            "bridge.commutation_s": s.busy(COMMUTATION),
            "bridge.check_self_s": s.self_time(CHECKS),
            "dynamics.classical_s": s.busy(CLASSICAL),
            "dynamics.classical_steps": c["classical_steps"],
            "dynamics.fde_s": s.busy(FDE),
            "dynamics.fde_steps": c["fde_steps"],
            "dynamics.fde_history_madds": c["fde_history_madds"],
            "fracops.caputo_calls": calls(CAPUTO),
            "fracops.caputo_s": s.busy(CAPUTO),
            "fracops.rl_s": s.busy(RL),
            "fracops.conv_madds": c["conv_madds"],
            "variational.el_calls": calls(EL),
            "variational.el_self_s": s.self_time(EL),
            "special.ml_calls": len(ml_ms),
            "special.ml_s": s.busy(ML),
            "special.ml_p50_ms": statistics.median(ml_ms) if ml_ms else 0.0,
            "special.ml_max_ms": ml_ms[-1] if ml_ms else 0.0,
            "special.ml_calls_over_1ms": sum(t > 1.0 for t in ml_ms),
            "grids.csv_calls": calls(CSV),
            "grids.csv_s": s.busy(CSV),
            "grids.bytes_written": c["bytes_written"],
            "trace.coverage": s.coverage(RUN),
        }


def run(argvs: list, traced: bool) -> dict:
    """Run each argv through fractime.cli.main; time the calls."""
    import fractime.cli as cli

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    invocations = []
    main_s = 0.0
    for argv in argvs:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception:  # a crash; the report judge counts its checks as failed
            traceback.print_exc()
            code = None
        main_s += time.perf_counter() - start
        invocations.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
    out = {"main_s": main_s, "invocations": invocations}
    if tracer is not None:
        out["layers"] = tracer.layers()
        out["ml_latency"] = [
            {"alpha": a, "beta": b, "z": z, "ms": t * 1e3} for a, b, z, t in tracer.ml_calls
        ]
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[2]), sys.argv[1] == "1")))
