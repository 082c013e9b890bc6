"""Run artifacts: history table, field dumps, report, config echo.

Every writer is deterministic (same inputs give byte-identical files) and
atomic (write to a sibling temp file, then rename), so an interrupted run
never leaves a truncated artifact behind.  Floats are printed with 17
significant digits, which round-trips IEEE doubles exactly.
"""
from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

import numpy as np

from .grid import Grid

HISTORY_COLUMNS = ("n", "A_n", "d_n", "r_n", "F_lp", "G_w1p", "verdict")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_history(path, history: Iterable, verdict: str) -> None:
    """Write the outer-iteration history as CSV, one row per iteration."""
    lines = [", ".join(HISTORY_COLUMNS)]
    for rec in history:
        lines.append(", ".join((
            str(rec.n), _fmt(rec.a_n), _fmt(rec.d_n), _fmt(rec.r_n),
            _fmt(rec.f_lp), _fmt(rec.g_w1p), verdict,
        )))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_history(path) -> list[dict]:
    """Read a history CSV back into a list of per-row dicts."""
    rows = []
    lines = Path(path).read_text().splitlines()
    header = tuple(cell.strip() for cell in lines[0].split(",")) if lines else ()
    if header != HISTORY_COLUMNS:
        raise ValueError(f"unexpected history header {header!r} in {path}")
    for number, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line.split(",", 6)]  # verdicts hold commas
        if len(cells) < len(HISTORY_COLUMNS):
            raise ValueError(f"history row {number} of {path} has {len(cells)} of "
                             f"{len(HISTORY_COLUMNS)} cells")
        try:
            row = {"n": int(cells[0]), "verdict": cells[6]}
            for key, cell in zip(HISTORY_COLUMNS[1:6], cells[1:6]):
                row[key] = float(cell)
        except ValueError as exc:
            raise ValueError(f"history row {number} of {path}: {exc}") from None
        rows.append(row)
    return rows


def write_field_dump(path, name: str, values: np.ndarray, grid: Grid) -> None:
    """Write one field on the full node lattice.

    Three header lines (node counts per axis, spacings, field name and
    component count) followed by one line per node with the first axis
    index varying fastest.  Vector fields put the components side by
    side on each line.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 3:
        comps = arr[None]
    elif arr.ndim == 4:
        comps = arr
    else:
        raise ValueError(f"field values must be 3D or 4D, got shape {arr.shape}")
    if comps.shape[1:] != grid.shape:
        raise ValueError(f"field shape {comps.shape[1:]} does not match grid {grid.shape}")
    lines = [
        "nodes " + " ".join(str(n) for n in grid.shape),
        "spacing " + " ".join(_fmt(h) for h in grid.h),
        f"field {name} components {comps.shape[0]}",
    ]
    # one "%.17g" per value, the same text as _fmt, formatted a row at a time
    row = " ".join(["%.17g"] * comps.shape[0])
    columns = [comps[c].reshape(-1, order="F").tolist() for c in range(comps.shape[0])]
    lines.extend(row % entries for entries in zip(*columns))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_field_dump(path) -> tuple[str, np.ndarray, tuple[float, float, float]]:
    """Read a field dump; returns (name, values, spacings).

    Scalar fields come back 3D, vector fields 4D with the component axis
    first, matching what write_field_dump accepted.
    """
    lines = Path(path).read_text().splitlines()
    if len(lines) < 3:
        raise ValueError(f"field dump {path} has {len(lines)} of its 3 header lines")
    head = lines[2].split()
    if len(head) != 4 or head[0] != "field" or head[2] != "components":
        raise ValueError(f"malformed field header {lines[2]!r} in {path}")
    try:
        nodes = tuple(int(tok) for tok in lines[0].split()[1:])
        spacing = tuple(float(tok) for tok in lines[1].split()[1:])
        name, ncomp = head[1], int(head[3])
    except ValueError as exc:
        raise ValueError(f"field dump {path}, header: {exc}") from None
    for line, values in ((lines[0], nodes), (lines[1], spacing)):
        if len(values) != 3:
            raise ValueError(f"field dump {path}: header line {line!r} needs 3 values")
    n_nodes = int(np.prod(nodes))
    if len(lines) - 3 != n_nodes:
        raise ValueError(f"field dump {path} has {len(lines) - 3} body lines, "
                         f"its nodes line {n_nodes}")
    rows = []
    for number, line in enumerate(lines[3:], start=4):
        try:
            row = list(map(float, line.split()))
        except ValueError as exc:
            raise ValueError(f"field dump {path}, line {number}: {exc}") from None
        if len(row) != ncomp:
            raise ValueError(f"field dump {path}, line {number} has {len(row)} "
                             f"of its {ncomp} values")
        rows.append(row)
    table = np.array(rows)
    comps = np.stack([table[:, c].reshape(nodes, order="F") for c in range(ncomp)])
    values = comps[0] if ncomp == 1 else comps
    return name, values, spacing


def write_report_json(path, report) -> None:
    """Write a diagnostics report as sorted, indented JSON."""
    _atomic_write(path, json.dumps(report.as_flat_dict(), indent=2, sort_keys=True) + "\n")


def write_config_echo(path, document: dict) -> None:
    _atomic_write(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def write_outputs(out_dir, bundle, config) -> list[str]:
    """Write the standard artifact set for one solve; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    history_path = out / "history.csv"
    write_history(history_path, bundle.history, bundle.verdict)
    written.append(str(history_path))

    for name, fld in (("u", bundle.u), ("w", bundle.w), ("v", bundle.v), ("rho", bundle.rho)):
        path = out / f"field_{name}.txt"
        write_field_dump(path, name, fld.values, fld.grid)
        written.append(str(path))

    echo_path = out / "config.json"
    write_config_echo(echo_path, config.document)
    written.append(str(echo_path))
    return written
