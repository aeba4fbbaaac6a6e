"""Tests of the benchmark's output check and its declared metrics.

    python3 -m pytest perfbench/test_check.py
"""

import json
import shutil
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import check
import run
import workloads
from tracing import ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
REFS = json.loads((HERE / "references.json").read_text())["configs"]


def _csv(ref, row=None, col=None, value=None):
    rows = [list(r) for r in ref["rows"]]
    if row is not None:
        rows[row][ref["header"].index(col)] = value
    return "\n".join(",".join(r) for r in [ref["header"], *rows]) + "\n"


def _scaled(ref, row, col, factor):
    return _csv(ref, row, col, f"{float(ref['rows'][row][ref['header'].index(col)]) * factor:.17g}")


@pytest.mark.parametrize("key", sorted(REFS))
def test_reference_passes_its_own_check(key):
    assert check.check_csv(_csv(REFS[key]), REFS[key]) == []


@pytest.mark.parametrize("key,col", [
    ("profile/0/k1", "m_hat"),
    ("curve/0/lambda", "m_hat"),
    ("sweep/0/subcritical", "predicted"),
    ("recovery/0/lambda-eps5", "energy"),
    ("recovery/0/supercritical-eps7", "predicted"),
])
def test_corrupting_one_value_fails(key, col):
    ref = REFS[key]
    for factor in (1 + 1e-3, 1 - 1e-3):
        problems = check.check_csv(_scaled(ref, 0, col, factor), ref)
        assert any(f" {col}=" in p for p in problems)


def test_unconverged_minimum_may_only_go_down():
    key = "profile/0/k0"
    ref = REFS[key]
    row = next(i for i, flag in enumerate(ref["unconverged"]) if flag)
    assert check.check_csv(_scaled(ref, row, "m_hat", 1 - 1e-3), ref) == []
    assert check.check_csv(_scaled(ref, row, "m_hat", 1 + 1e-3), ref) != []


def test_converged_minimum_may_not_go_down():
    ref = REFS["profile/0/k1"]
    assert ref["unconverged"] == [False]
    assert check.check_csv(_scaled(ref, 0, "m_hat", 1 - 1e-3), ref) != []


def test_malformed_outputs_fail():
    ref = REFS["sweep/0/subcritical"]
    assert check.check_csv(_csv(ref, 1, "min_energy", "nan"), ref) != []
    assert check.check_csv(_csv(ref, 0, "eps", "0.5"), ref) != []
    assert check.check_csv(_csv(ref, 2, "rel_gap", "0.5"), ref) != []
    assert check.check_csv(_csv(ref).rstrip("\n"), ref) != []
    assert check.check_csv(_csv(ref).replace("min_energy", "energy"), ref) != []


def test_every_variant_has_references():
    for name, (n_variants, _, _) in workloads.WORKLOADS.items():
        for seed in range(n_variants):
            for cfg_name, raw in workloads.make_configs(name, seed):
                assert REFS[run.reference_key(name, seed, cfg_name)]["config"] == raw


def test_sign_flip_variants_report_identical_energies():
    for key, ref in REFS.items():
        workload, v, name = key.split("/")
        if workload != "recovery" and v == "1":
            mirror = REFS[f"{workload}/0/{name}"]
            for col in check.ENERGIES:
                if col in ref["header"]:
                    i = ref["header"].index(col)
                    assert [r[i] for r in ref["rows"]] == [r[i] for r in mirror["rows"]]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_tracer_self_time_excludes_overlapping_pool_children():
    mod = types.SimpleNamespace(leaf=lambda _: time.sleep(0.05))

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(mod.leaf, range(2)))
        time.sleep(0.02)

    mod.outer = outer
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "leaf")
    tracer.wrap(mod, "outer", ROOT_SPAN)
    mod.outer()
    # the two leaves run on pool threads at the same time: their union, not
    # their sum, comes off the parent
    self_s = tracer.summary()["harness.run_experiment_self_s"]
    assert 0.02 <= self_s < 0.045


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "profile"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
