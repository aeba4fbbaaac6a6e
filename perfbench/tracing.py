"""Spans around fraclab's public callables, recorded from outside ``src/``.

Each wrapper replaces a callable where its caller looks it up (a module
global or a class attribute) and records a span: name, start, end and the
span that was open when it started.  Spans live in memory, one list per
thread; a span opened on a worker thread with nothing open on that thread
hangs under the ``run_experiment`` span that started the thread pool.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

ROOT_SPAN = "harness.run_experiment"


def solve_record(minimize_fn, args, kwargs, result) -> dict:
    """What one ``minimize`` call reported, read from its ``MinimizeResult``."""
    opts = args[4] if len(args) > 4 else kwargs.get(
        "opts", inspect.signature(minimize_fn).parameters["opts"].default)
    return {"converged": bool(result.converged), "iterations": int(result.iterations),
            "final_grad_norm": float(result.final_grad_norm),
            "energy": f"{result.energy:.17g}", "max_iters": int(opts.max_iters)}


def record_solves(modules, solves: list) -> None:
    """Untraced mode: wrap ``minimize`` in each module only to log its results."""
    for mod in modules:
        fn = mod.minimize

        @functools.wraps(fn)
        def wrapper(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            solves.append(solve_record(_fn, args, kwargs, result))
            return result

        mod.minimize = wrapper


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = {}  # thread id -> [[name, start, end, parent id]]
        self.root = None
        self.solves = []  # one record per minimize call
        self.max_nodes = 0  # largest N of a dense pair operator built

    def _open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._local.spans = self.spans.setdefault(threading.get_ident(), [])
        spans = self._local.spans
        parent = stack[-1] if stack else self.root
        spans.append([name, time.perf_counter(), None, parent])
        ident = (threading.get_ident(), len(spans) - 1)
        if name == ROOT_SPAN and not stack:
            self.root = ident
        stack.append(ident)
        return ident

    def _close(self, ident):
        self._local.spans[ident[1]][2] = time.perf_counter()
        self._local.stack.pop()
        if ident == self.root:
            self.root = None

    def wrap(self, owner, attr, name, on_return=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ident = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(ident)
            if on_return is not None:
                on_return(fn, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self, harness, profiles, experiments, energy):
        def on_solve(fn, args, kwargs, result):
            self.solves.append(solve_record(fn, args, kwargs, result))

        def note_operator(n_nodes):
            with self._lock:  # curve assembles on pool threads
                self.max_nodes = max(self.max_nodes, n_nodes)

        def on_assemble(fn, args, kwargs, result):
            note_operator((args[1] if len(args) > 1 else kwargs["grid"]).n_nodes)

        def on_eval_F(fn, args, kwargs, result):
            note_operator(args[0].grid.n_nodes)

        self.wrap(profiles, "minimize", "optimize.minimize", on_solve)
        self.wrap(experiments, "minimize", "optimize.minimize", on_solve)
        cls = energy.DiscreteEnergy
        self.wrap(cls, "__init__", "energy.assemble", on_assemble)
        self.wrap(cls, "energy", "energy.energy")
        self.wrap(cls, "gradient", "energy.gradient")
        self.wrap(harness, "eval_F", "energy.eval_F", on_eval_F)
        self.wrap(harness, "transition_energy", "profiles.transition_energy")
        self.wrap(harness, "regime_sweep", "experiments.regime_sweep")
        self.wrap(harness, "build_recovery", "experiments.build_recovery")
        self.wrap(harness, "emit_csv", "harness.emit_csv")
        self.wrap(harness, "load_config", "harness.load_config")
        self.wrap(harness, "run_experiment", ROOT_SPAN)

    def summary(self) -> dict:
        """Per-layer totals over every span recorded."""
        spans = {(tid, i): s for tid, lst in self.spans.items() for i, s in enumerate(lst)}
        children = defaultdict(list)
        for ident, (_, _, _, parent) in spans.items():
            if parent is not None:
                children[parent].append(ident)

        def dur(ident):
            return spans[ident][2] - spans[ident][1]

        def self_time(ident):
            # the span minus the union of its children's intervals, clipped
            # to it: children on pool threads overlap one another
            _, start, end, _ = spans[ident]
            covered, reach = 0.0, start
            for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children[ident]):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            return (end - start) - covered

        def under(ident, name):
            parent = spans[ident][3]
            while parent is not None:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        by_name = defaultdict(list)
        for ident, span in spans.items():
            by_name[span[0]].append(ident)

        def total(name):
            return sum(dur(i) for i in by_name[name])

        solves = self.solves
        iterations = sum(r["iterations"] for r in solves)
        minimize_ids = set(by_name["optimize.minimize"])
        energy_in_solves = sum(1 for i in by_name["energy.energy"] if spans[i][3] in minimize_ids)
        sweeps = len(by_name["experiments.regime_sweep"])
        sweep_starts = sum(1 for i in minimize_ids if under(i, "experiments.regime_sweep"))
        return {
            "harness.load_config_s": total("harness.load_config"),
            "harness.emit_csv_s": total("harness.emit_csv"),
            "harness.run_experiment_self_s": sum(self_time(i) for i in by_name[ROOT_SPAN]),
            "profiles.transition_energy_calls": len(by_name["profiles.transition_energy"]),
            "profiles.transition_energy_s": total("profiles.transition_energy"),
            "experiments.regime_sweep_s": total("experiments.regime_sweep"),
            "experiments.sweep_starts": sweep_starts / sweeps if sweeps else 0,
            "experiments.build_recovery_s": total("experiments.build_recovery"),
            "optimize.minimize_calls": len(solves),
            "optimize.iterations": iterations,
            "optimize.energy_calls_per_iter": energy_in_solves / iterations if iterations else 0.0,
            "optimize.self_s": sum(self_time(i) for i in minimize_ids),
            "optimize.max_iters_hits": sum(
                1 for r in solves if not r["converged"] and r["iterations"] >= r["max_iters"]),
            "optimize.early_stops": sum(
                1 for r in solves if not r["converged"] and r["iterations"] < r["max_iters"]),
            "energy.assemble_calls": len(by_name["energy.assemble"]),
            "energy.assemble_s": total("energy.assemble"),
            "energy.energy_calls": len(by_name["energy.energy"]),
            "energy.energy_s": total("energy.energy"),
            "energy.gradient_calls": len(by_name["energy.gradient"]),
            "energy.gradient_s": total("energy.gradient"),
            "energy.eval_F_calls": len(by_name["energy.eval_F"]),
            "energy.eval_F_s": total("energy.eval_F"),
            "energy.pair_matrix_mb": 8.0 * self.max_nodes ** 2 / 2 ** 20,
        }
