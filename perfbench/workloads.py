"""The benchmark's workloads: fraclab configs generated from a seed.

Seed 0 gives the canonical configs.  Other seeds select a variant:

* ``profile``, ``curve`` and ``sweep`` flip the transition direction on odd
  seeds (``omega`` or the jump sign).  With ``chi = 0`` that is an exact
  symmetry, so the solves repeat bit for bit with the sign reversed.  These
  workloads get no numeric perturbation, because projected BB descent is
  chaotic in its inputs: on the k=1 profile, moving ``lam`` by 1e-12 moves the
  iteration count anywhere between about 7,500 and 12,300 (one BLAS thread,
  2-core Xeon), and a seed there would measure that scatter instead of the
  code.
* ``recovery`` shifts the jump location by up to 0.04 (eight variants).  Its
  time sits in assembling and evaluating the N=8193 energy, which does not
  depend on the jump location, and its N=385 reference solves do not see the
  jump at all.  ``lam`` stays at 1: moving it by 1 percent turned 8 of the
  20 reference solves into early stops and took 2.4 times the solver time.

Every variant has recorded reference outputs in ``references.json``.
"""

from __future__ import annotations

import random

KERNEL = {"variant": "cos_sum", "c0": 2.5, "c1": 1.0}
COMMON = {"kernel": KERNEL, "chi": 0.0, "grad_tol": 1e-6}
RECOVERY_VARIANTS = 8


def _profile(sign: int):
    base = {"command": "profile", **COMMON, "mode": "lambda", "lam": 1.0, "omega": sign,
            "T": 4.0, "n_cells": 768}
    return [("k1", {**base, "k": 1, "s": 0.5}), ("k0", {**base, "k": 0, "s": 0.75})]


def _sweep(sign: int):
    return [("subcritical", {
        "command": "sweep", **COMMON, "k": 0, "s": 0.75, "jumps": [[0.5, sign]],
        "rule": "subcritical", "eps_list": [2.0 ** -5, 2.0 ** -6, 2.0 ** -7],
        "n_cells": 2000, "T_profile": 4.0, "window_factor": 4.0, "reference_n_cells": 768,
    })]


def _curve(sign: int):
    return [("lambda", {
        "command": "curve", **COMMON, "mode": "lambda", "lam": 1.0, "omega": sign,
        "k": 0, "s": 0.75, "T": 4.0, "n_cells": 768, "T_list": [2.0, 4.0, 8.0, 16.0],
    })]


def _recovery(variant: int):
    jump = 0.5
    if variant:
        jump = round(0.5 + random.Random(variant).uniform(-0.04, 0.04), 6)
    return [(f"{mode}-eps{e}", {
        "command": "recovery", **COMMON, "k": 0, "s": 0.75, "jumps": [[jump, 1]],
        "mode": mode, "eps": 2.0 ** -e, "n_cells": 8192, "T_profile": 4.0,
        "reference_n_cells": 384,
    }) for mode in ("lambda", "supercritical") for e in (5, 6, 7, 8)]


# name -> (number of distinct variants, configs of a variant, --workers);
# why each workload is there is recorded in BENCHMARK.json
WORKLOADS = {
    "profile": (2, lambda v: _profile(-1 if v else 1), 1),
    "sweep": (2, lambda v: _sweep(-1 if v else 1), 1),
    "recovery": (RECOVERY_VARIANTS, _recovery, 1),
    "curve": (2, lambda v: _curve(-1 if v else 1), 2),
}


def variant(workload: str, seed: int) -> int:
    return seed % WORKLOADS[workload][0]


def make_configs(workload: str, seed: int):
    """[(config name, raw config dict)] for the workload at this seed."""
    return WORKLOADS[workload][1](variant(workload, seed))


def workers(workload: str) -> int:
    return WORKLOADS[workload][2]
