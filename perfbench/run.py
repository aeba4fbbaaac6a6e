"""fraclab's benchmark: time to a converged transition energy, per layer.

    python3 perfbench/run.py --workload profile|sweep|recovery|curve|all
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload is a set of configs from ``workloads.py``, written under
``.perfbench_out/`` and run through the CLI's path (``load_config`` ->
``run_experiment`` -> CSV) in a fresh interpreter per pass (``child.py``),
with BLAS pinned to one thread.  Every CSV is checked against the reference
recorded at the seed commit (``check.py``, ``references.json``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``SETUP_REPEATS`` fresh interpreters importing ``fraclab.cli`` and validating
every config), and the median ``wall_s`` and ``peak_rss_mb`` over passes
repeated until ``--seconds`` have gone by, plus ``converged_frac``.
``--trace 1`` runs a traced pass between two untraced ones, checks that the
traced CSVs are byte-identical to the untraced ones, and reports the
per-layer metrics with the tracing overhead (traced ``wall_s`` minus the
mean of the untraced ones).  The last line of stdout is the JSON result.

``BENCHMARK.json`` lists ``profile``, ``sweep`` and ``recovery``.  ``curve``
(the harness thread pool, ``--workers 2``) runs by hand only: it needs two
passes per run to be steady, and a full set of benchmark runs must finish
within 3420 s, which has no room for them next to the other three.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "converged_frac": "ratio"}
PER_LAYER = {
    "harness.load_config_s": "s",
    "harness.emit_csv_s": "s",
    "harness.run_experiment_self_s": "s",
    "profiles.transition_energy_calls": "count",
    "profiles.transition_energy_s": "s",
    "experiments.regime_sweep_s": "s",
    "experiments.sweep_starts": "starts/sweep",
    "experiments.build_recovery_s": "s",
    "optimize.minimize_calls": "count",
    "optimize.iterations": "count",
    "optimize.energy_calls_per_iter": "calls/iter",
    "optimize.self_s": "s",
    "optimize.max_iters_hits": "count",
    "optimize.early_stops": "count",
    "energy.assemble_calls": "count",
    "energy.assemble_s": "s",
    "energy.energy_calls": "count",
    "energy.energy_s": "s",
    "energy.gradient_calls": "count",
    "energy.gradient_s": "s",
    "energy.eval_F_calls": "count",
    "energy.eval_F_s": "s",
    "energy.pair_matrix_mb": "MiB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run: no result is printed."""


def _child(args):
    return subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": model, "python": sys.version.split()[0],
            "git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def write_configs(workload: str, seed: int, run_dir: Path):
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    configs = []
    for name, raw in workloads.make_configs(workload, seed):
        path = run_dir / f"{name}.json"
        path.write_text(json.dumps(raw, indent=1))
        configs.append((name, raw, path))
    return configs


def time_setup(paths) -> list:
    """Wall time of fresh interpreters, after one untimed run that fills the
    bytecode cache (users pay that once, not per run)."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        done = _child(["--setup", *map(str, paths)])
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise BenchError(f"setup failed:\n{done.stderr}")
        if i:
            times.append(elapsed)
    return times


def run_pass(workload: str, configs, out_dir: Path, trace: bool) -> dict:
    """One child pass; its JSON report."""
    out_dir.mkdir(parents=True)
    args = ["--out-dir", str(out_dir), "--workers", str(workloads.workers(workload))]
    if trace:
        args.append("--trace")
    try:
        done = _child([*args, *(str(p) for _, _, p in configs)])
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass timed out after {CHILD_TIMEOUT_S} s") from exc
    try:
        if done.returncode == 0:
            return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        pass
    raise BenchError(f"{workload} pass failed:\n{done.stderr}")


def reference_key(workload: str, seed: int, name: str) -> str:
    return f"{workload}/{workloads.variant(workload, seed)}/{name}"


def check_pass(workload, seed, configs, report, out_dir, references) -> dict:
    """{config name: problem} for every config run of this pass that failed."""
    errors = {entry["name"]: entry["error"] for entry in report["configs"]}
    failures = {}
    for name, raw, _ in configs:
        ref = references.get(reference_key(workload, seed, name))
        csv = out_dir / f"{name}.csv"
        if errors.get(name):
            problems = [errors[name]]
        elif not csv.is_file():
            problems = ["no CSV written"]
        elif ref is None or ref["config"] != raw:
            problems = ["no reference recorded for this config"]
        else:
            problems = check.check_csv(csv.read_text(), ref)
        if problems:
            failures[name] = "; ".join(problems)
    return failures


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())["configs"] if REFERENCES.is_file() else {}


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, references) -> dict:
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    configs = write_configs(workload, seed, run_dir)
    failures = {}  # (pass directory, config name) -> problem

    def measured_pass(label, traced):
        out_dir = run_dir / label
        report = run_pass(workload, configs, out_dir, traced)
        for name, problem in check_pass(workload, seed, configs, report, out_dir,
                                        references).items():
            failures[label, name] = problem
        return report

    if trace:
        # untraced passes on both sides of the traced one, so that a slow
        # first pass does not pass for tracing overhead
        passes = [measured_pass(label, label == "traced")
                  for label in ("plain", "traced", "plain2")]
        for name, _, _ in configs:
            plain, traced = (run_dir / d / f"{name}.csv" for d in ("plain", "traced"))
            if plain.is_file() and traced.is_file() and plain.read_bytes() != traced.read_bytes():
                failures.setdefault(("traced", name), "traced CSV differs from the untraced one")
        traced_wall = passes[1]["wall_s"]
        values = dict(passes[1]["layers"])
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - (passes[0]["wall_s"] + passes[2]["wall_s"]) / 2
        metrics = _metrics(values, PER_LAYER)
    else:
        setup = time_setup([p for _, _, p in configs])
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(measured_pass(f"pass{len(passes)}", False))
        solves = [s for p in passes for c in p["configs"] for s in c["solves"]]
        metrics = _metrics({
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "converged_frac": sum(s["converged"] for s in solves) / len(solves),
        }, END_TO_END)
    for (label, name), problem in sorted(failures.items()):
        print(f"FAILED {workload} {label}/{name}: {problem}", file=sys.stderr)
    return {"correct": not failures, "attempted": len(configs) * len(passes),
            "failed": len(failures), "metrics": metrics,
            "passes": len(passes), "versions": passes[0]["versions"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fraclab" / "__init__.py").is_file():
        print(f"fraclab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = load_references()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine " + json.dumps(machine()))
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), references)
            print(f"versions {json.dumps(result.pop('versions'))}")
            print(f"{name}: {result.pop('passes')} pass(es), attempted {result['attempted']},"
                  f" failed {result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {name:<9} {metric:<34} {m['value']:>14.6g} {m['unit']}")
            results[name] = result
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
