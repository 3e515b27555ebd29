"""Correctness gate: every benchmark output is checked before it counts.

Sweep tables are compared cell by cell with the reference tables in
``reference/tables.json.gz``, which ``make_reference.py`` wrote once from the
commit that defined the benchmark. Numbers must agree to 1e-12 relative;
strings (``status``, ``phase_class``) must be identical. On top of that, each
table is checked against invariants that hold for any seed, and every located
root against the README-bracket root.

A reference must never be regenerated to hide a change in behaviour.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

from workloads import Locate, Sweep

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "tables.json.gz"

REL_TOL = 1e-12
# Columns that are differences of order-one quantities (residuals and
# deviations). Where they cancel to rounding level, 1e-12 relative would
# compare rounding noise, so they get an absolute floor of 1e-12 as well.
_RESIDUAL_COLUMNS = {"conservation_generalized", "conservation_phase",
                     "unimodularity_dev", "deficit_left", "deficit_right"}

# Generalized conservation | |T - 1| - sqrt(R_L R_R) | on a balanced stack is
# rounding noise (at most 4e-15 on these grids at the defining commit).
CONSERVATION_TOL = 1e-12
# The library's own default tolerance for the commutator sum rule.
SUM_RULE_TOL = 1e-10
SUM_RULE_SAMPLES = 4
# Bisection stops at 1e-10 relative bracket width, so roots from different
# brackets agree to about that; |eta| has a cusp with ~1e-5 noise on its
# steep side, which moves the eta_unity root by up to 1e-8.
ROOT_RTOL = {"eta_unity": 1e-7}
ROOT_RTOL_DEFAULT = 1e-9

_MAX_PROBLEMS = 5


def load_reference() -> dict:
    with gzip.open(REFERENCE_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _cell(text: str):
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    return None if math.isnan(value) else value


def parse_table(text: str, fmt: str) -> dict:
    """Columns, rows and (JSON only) metadata of one emitted table."""
    if fmt == "json":
        return json.loads(text)
    reader = csv.reader(io.StringIO(text))
    columns = next(reader)
    return {"columns": columns, "rows": [[_cell(c) for c in row] for row in reader]}


def _cells_agree(got, want, floor: float) -> bool:
    if isinstance(want, str) or want is None or isinstance(got, str) or got is None:
        return got == want
    if got == want:
        return True
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want), floor)


def compare_table(table: dict, ref: dict) -> list[str]:
    """Differences between an emitted table and its reference."""
    if table["columns"] != ref["columns"]:
        return [f"columns {table['columns']} != reference {ref['columns']}"]
    if "metadata" in ref and table.get("metadata") != ref["metadata"]:
        return ["metadata differs from reference"]
    if len(table["rows"]) != len(ref["rows"]):
        return [f"{len(table['rows'])} rows, reference has {len(ref['rows'])}"]
    floors = [1.0 if (c in _RESIDUAL_COLUMNS or c.endswith("_rel_dev")) else 0.0
              for c in ref["columns"]]
    problems = []
    for i, (row, want) in enumerate(zip(table["rows"], ref["rows"])):
        if len(row) != len(want):
            return [f"row {i} has {len(row)} cells, reference has {len(want)}"]
        for name, got, exp, floor in zip(ref["columns"], row, want, floors):
            if not _cells_agree(got, exp, floor):
                problems.append(f"row {i} {name}: {got!r} != reference {exp!r}")
                if len(problems) >= _MAX_PROBLEMS:
                    return problems
    return problems


def _row_parameters(spec: Sweep, x: float, ptbilayer):
    """(bilayer, omega in rad/s) of the row at grid value x."""
    alpha_l = x if spec.variable == "alpha_l" else spec.alpha_l
    if spec.variable == "omega":
        omega = x * ptbilayer.TRAD
    elif spec.omega_trad is not None:
        omega = spec.omega_trad * ptbilayer.TRAD
    else:
        omega = ptbilayer.preset_default_omega(spec.preset)
    thickness = (ptbilayer.DEFAULT_LAYER_THICKNESS if spec.thickness_nm is None
                 else spec.thickness_nm * ptbilayer.NM)
    return ptbilayer.preset(spec.preset, alpha_l, thickness), omega


def check_invariants(spec: Sweep, table: dict, rng, ptbilayer) -> list[str]:
    """Seed-independent physics checks on an emitted table."""
    cols = table["columns"]
    rows = table["rows"]
    i_status = cols.index("status")
    ok_rows = [r for r in rows if r[i_status] == "ok"]
    problems = []
    if spec.balanced and "conservation_generalized" in cols:
        i_gen, i_t = cols.index("conservation_generalized"), cols.index("T")
        for r in ok_rows:
            if not r[i_gen] <= CONSERVATION_TOL * max(1.0, r[i_t]):
                problems.append(f"generalized conservation residual {r[i_gen]!r} "
                                f"at {cols[0]}={r[0]!r}")
                break
    if not spec.paper_mode and ok_rows:
        for r in rng.sample(ok_rows, min(SUM_RULE_SAMPLES, len(ok_rows))):
            bilayer, omega = _row_parameters(spec, r[0], ptbilayer)
            res = ptbilayer.sum_rule_residual(bilayer, omega)
            if not res <= SUM_RULE_TOL:
                problems.append(f"sum rule residual {res:.3e} at {cols[0]}={r[0]!r}")
    return problems


def check_sweep(spec: Sweep, text: str, reference: dict, rng, ptbilayer) -> tuple[list[str], int, int]:
    """(problems, rows, ok rows) for one sweep or compare output."""
    try:
        table = parse_table(text, spec.fmt)
        columns, rows = table["columns"], table["rows"]
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unparseable {spec.fmt} output: {exc}"], 0, 0
    problems = compare_table(table, reference["sweeps"][spec.name])
    if problems:
        return problems, len(rows), 0
    i_status = columns.index("status")
    ok = sum(r[i_status] == "ok" for r in rows)
    return check_invariants(spec, table, rng, ptbilayer), len(rows), ok


def check_locate(spec: Locate, text: str, bracket: tuple[float, float]) -> list[str]:
    """Problems with one locate output; empty when it is correct."""
    try:
        out = json.loads(text)
        x = float(out["abscissa"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable locate output: {exc}"]
    problems = []
    if out.get("kind") != spec.kind or out.get("variable") != spec.variable:
        problems.append(f"echoed kind/variable {out.get('kind')}/{out.get('variable')}")
    if out.get("bracket") != list(bracket):
        problems.append(f"echoed bracket {out.get('bracket')} != {list(bracket)}")
    rtol = ROOT_RTOL.get(spec.kind, ROOT_RTOL_DEFAULT)
    if not (bracket[0] <= x <= bracket[1] and abs(x - spec.root) <= rtol * abs(spec.root)):
        problems.append(f"root {x!r} differs from reference {spec.root!r} "
                        f"beyond {rtol:g} relative")
    return problems
