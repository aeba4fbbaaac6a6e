"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/child.py --setup CONFIG...
    python3 perfbench/child.py --out-dir DIR [--workers N] [--trace] CONFIG...

``--setup`` imports ``fraclab.cli`` and validates every config, nothing
more; the parent times it from process start to exit.  Otherwise the
configs go through the CLI's path (``load_config`` -> ``run_experiment`` ->
CSV) and the last line of stdout is a JSON report: wall time from validated
configs to every CSV written, peak RSS, each ``minimize`` result, and with
``--trace`` the per-layer totals.
"""

import os
import sys

# one BLAS/OpenMP thread, set before numpy loads: thread count changes both
# the per-call time and the solver's iteration counts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _versions() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas(numpy), "scipy_openblas": blas(scipy)}


def run(configs, out_dir: Path, workers: int, trace: bool) -> dict:
    from fraclab import energy, experiments, harness, profiles

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(harness, profiles, experiments, energy)
        solves = tracer.solves
    else:
        from tracing import record_solves

        solves = []
        record_solves((profiles, experiments), solves)

    loaded = [(Path(p).stem, harness.load_config(p)) for p in configs]
    results = []
    t0 = time.perf_counter()
    for name, cfg in loaded:
        first = len(solves)
        error = None
        try:
            harness.run_experiment(cfg, out_dir / f"{name}.csv", workers=workers)
        except Exception as exc:  # one failed config must not hide the others
            error = f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "error": error, "solves": solves[first:]})
    wall = time.perf_counter() - t0
    report = {"wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "configs": results, "versions": _versions()}
    if tracer is not None:
        report["layers"] = tracer.summary()
    return report


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("configs", nargs="+")
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--out-dir", type=Path)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.setup:
        import fraclab.cli  # noqa: F401
        from fraclab.harness import load_config

        for path in args.configs:
            load_config(path)
        return
    print(json.dumps(run(args.configs, args.out_dir, args.workers, args.trace)))


if __name__ == "__main__":
    main()
