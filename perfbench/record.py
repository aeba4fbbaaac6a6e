"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs one untraced pass of every variant of every workload and writes
``references.json``: per config, the config itself, its CSV rows and which
reported minima came from a solve that did not converge.  Run it only at a
commit whose outputs are trusted; a change that claims a gain must not
re-record.
"""

import json
import sys

import check
import run
import workloads


def main() -> int:
    refs = {}
    for workload, (n_variants, _, _) in workloads.WORKLOADS.items():
        for seed in range(n_variants):
            run_dir = run.OUT / f"record-{workload}-{seed}"
            configs = run.write_configs(workload, seed, run_dir)
            report = run.run_pass(workload, configs, run_dir / "out", False)
            for entry, (name, raw, _) in zip(report["configs"], configs):
                if entry["error"]:
                    print(f"{workload}/{seed}/{name}: {entry['error']}", file=sys.stderr)
                    return 1
                text = (run_dir / "out" / f"{name}.csv").read_text()
                refs[run.reference_key(workload, seed, name)] = {
                    "config": raw, **check.make_reference(text, entry["solves"])}
            print(f"recorded {workload} variant {seed}: {report['wall_s']:.2f} s", flush=True)
    run.REFERENCES.write_text(json.dumps(
        {"machine": run.machine(), "configs": refs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
