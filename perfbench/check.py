"""Output check of one CSV against the reference recorded at the seed commit.

* The header and the input columns (geometry, scales, mode) match exactly.
* Every number is finite; ``rel_gap`` agrees with its own row.
* The reported energies (``m_hat``, ``min_energy``, ``energy``,
  ``predicted``) agree with the reference within ``REL_TOL``.  A minimum
  whose reference solve did not converge may come out lower, because minima
  are upper estimates, but not higher.
"""

from __future__ import annotations

import math

REL_TOL = 1e-5
ENERGIES = ("m_hat", "min_energy", "energy", "predicted")
MINIMA = ("m_hat", "min_energy")
INPUTS = ("mode", "omega", "T", "T_out", "n_cells", "eps", "delta", "ratio", "n_jumps")


def _rows(text: str):
    if not text.endswith("\n"):
        raise ValueError("CSV does not end with a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def make_reference(text: str, solves) -> dict:
    """Reference entry for one config: its CSV plus, per row, whether the
    minimum it reports came from a solve that did not converge."""
    header, rows = _rows(text)
    unconverged_energies = {s["energy"] for s in solves if not s["converged"]}
    unconverged = [any(v in unconverged_energies for col, v in zip(header, row) if col in MINIMA)
                   for row in rows]
    return {"header": header, "rows": rows, "unconverged": unconverged}


def check_csv(text: str, ref: dict) -> list[str]:
    """Every way ``text`` disagrees with ``ref``; empty when it passes."""
    try:
        header, rows = _rows(text)
    except ValueError as exc:
        return [str(exc)]
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows, reference has {len(ref['rows'])}"]
    problems = []
    for i, (row, ref_row, unconverged) in enumerate(zip(rows, ref["rows"], ref["unconverged"])):
        if len(row) != len(header):
            problems.append(f"row {i}: {len(row)} fields")
            continue
        values = dict(zip(header, row))
        for col, val, ref_val in zip(header, row, ref_row):
            where = f"row {i} {col}={val}"
            if col in INPUTS:
                if val != ref_val:
                    problems.append(f"{where}: reference {ref_val}")
                continue
            if col == "converged":
                if val not in ("true", "false"):
                    problems.append(f"{where}: not a boolean")
                continue
            try:
                x = float(val)
            except ValueError:
                problems.append(f"{where}: not a number")
                continue
            if not math.isfinite(x):
                problems.append(f"{where}: not finite")
            elif col in ENERGIES:
                rel = (x - float(ref_val)) / abs(float(ref_val))
                if rel > REL_TOL or (rel < -REL_TOL and not (col in MINIMA and unconverged)):
                    problems.append(f"{where}: reference {ref_val}, relative error {rel:.2e}")
        if "rel_gap" in values:
            try:
                value = float(values.get("min_energy", values.get("energy")))
                predicted = float(values["predicted"])
                gap = float(values["rel_gap"])
            except ValueError:
                continue
            if abs(gap - (value - predicted) / predicted) > 1e-12 * max(1.0, abs(gap)):
                problems.append(f"row {i}: rel_gap {gap} disagrees with its row")
    return problems
