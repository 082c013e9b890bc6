"""Correctness checks on a workload's outputs.

Each check is one operation of the benchmark and returns
``(name, ok, detail)``.  Artifacts are parsed here, not through
``slipflow.runio``, so a defect in the package's own reader cannot hide a
defect in its writer.  Dumps carry 17 significant digits, which round-trip
doubles, so a parsed artifact must equal the in-memory result exactly.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

HISTORY_COLUMNS = ("n", "A_n", "d_n", "r_n", "F_lp", "G_w1p", "verdict")
DUMPED_FIELDS = ("u", "w", "v", "rho")
REFERENCE = Path(__file__).resolve().parent / "reference" / "split_default_seed0.npz"


def _check(name: str, fn) -> tuple[str, bool, str]:
    try:
        detail = fn()
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return name, False, f"{type(exc).__name__}: {exc}"
    return name, detail is None, detail or "ok"


def parse_history(path) -> tuple[tuple[str, ...], list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    header = tuple(cell.strip() for cell in lines[0].split(","))
    return header, [[cell.strip() for cell in line.split(",")] for line in lines[1:]]


def history_mismatch(path, bundle) -> str | None:
    header, rows = parse_history(path)
    if header != HISTORY_COLUMNS:
        return f"header {header}"
    if len(rows) != len(bundle.history):
        return f"{len(rows)} rows for {len(bundle.history)} iterations"
    for row, rec in zip(rows, bundle.history):
        want = (rec.n, rec.a_n, rec.d_n, rec.r_n, rec.f_lp, rec.g_w1p)
        got = (int(row[0]), *(float(cell) for cell in row[1:6]))
        if got != want or row[6] != bundle.verdict:
            return f"row {rec.n} reads {row}"
    return None


def parse_dump(path) -> tuple[str, np.ndarray]:
    """(name, values) of a field dump; vector fields come back (3, *nodes)."""
    lines = Path(path).read_text().splitlines()
    nodes_line, head = lines[0].split(), lines[2].split()
    if nodes_line[0] != "nodes" or len(head) != 4 or head[0] != "field" or head[2] != "components":
        raise ValueError(f"malformed dump header in {path}")
    nodes = tuple(int(tok) for tok in nodes_line[1:])
    ncomp = int(head[3])
    table = np.array([[float(tok) for tok in line.split()] for line in lines[3:]])
    if table.shape != (int(np.prod(nodes)), ncomp):
        raise ValueError(f"dump body {table.shape} does not match {nodes} x {ncomp}")
    comps = np.stack([table[:, c].reshape(nodes, order="F") for c in range(ncomp)])
    return head[1], comps[0] if ncomp == 1 else comps


def dump_mismatch(path, name: str, values: np.ndarray) -> str | None:
    got_name, got = parse_dump(path)
    if got_name != name:
        return f"field name {got_name!r}"
    if got.shape != values.shape:
        return f"shape {got.shape} != {values.shape}"
    if not np.array_equal(got, values):
        return f"max difference {float(np.max(np.abs(got - values))):.3e}"
    return None


def artifact_checks(out_dir, bundle) -> list[tuple[str, bool, str]]:
    """history.csv and every field dump against the returned bundle."""
    out = Path(out_dir)
    checks = [_check("history.csv matches", lambda: history_mismatch(out / "history.csv", bundle))]
    for name in DUMPED_FIELDS:
        values = getattr(bundle, name).values
        checks.append(_check(
            f"field_{name}.txt matches",
            lambda name=name, values=values: dump_mismatch(out / f"field_{name}.txt", name, values),
        ))
    return checks


def reference_tolerance(outer_tol: float, inner_tol: float) -> float:
    """Largest sup-norm gap allowed between two converged split solutions.

    Each converged run is within outer_tol of the discrete fixed point in
    the contraction metric and each linear step within inner_tol of its
    own, so two runs may differ by twice their sum; a factor 5 more covers
    the sup norm against that H1 + Linf-L2 metric on this grid.
    """
    return 10.0 * (outer_tol + inner_tol)


def reference_check(bundle, outer_tol: float, inner_tol: float, path=REFERENCE):
    """Split solution of seed 0 against the one recorded with the benchmark."""
    tol = reference_tolerance(outer_tol, inner_tol)

    def gap():
        with np.load(path) as ref:
            worst = max(
                float(np.max(np.abs(bundle.u.values - ref["u"]))),
                float(np.max(np.abs(bundle.w.values - ref["w"]))),
            )
        return None if worst <= tol else f"sup gap {worst:.3e} > {tol:.1e}"

    return _check("split fields match the seed-0 reference", gap)
