"""Run artifacts: history table, field dumps, report, config echo.

Every writer is deterministic (same inputs give byte-identical files) and
atomic (stream into a sibling temp file, then rename), so an interrupted
run never leaves a truncated artifact behind.  Floats are printed with 17
significant digits, which round-trips IEEE doubles exactly.  Field dumps
are written 512 rows at a time, each value as format(value, ".17g")
prints it, and read through numpy's text reader, so neither direction
holds a Python object per value of the field; a body the reader rejects
is scanned line by line, so a malformed dump is reported by file and
first bad line.
"""
from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .grid import Grid

HISTORY_COLUMNS = ("n", "A_n", "d_n", "r_n", "F_lp", "G_w1p", "verdict")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@contextmanager
def _atomic_write(path):
    """Yield a text file that replaces path once the block completes."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        yield fh
    os.replace(tmp, path)


def write_history(path, history: Iterable, verdict: str) -> None:
    """Write the outer-iteration history as CSV, one row per iteration."""
    lines = [", ".join(HISTORY_COLUMNS)]
    for rec in history:
        lines.append(", ".join((
            str(rec.n), _fmt(rec.a_n), _fmt(rec.d_n), _fmt(rec.r_n),
            _fmt(rec.f_lp), _fmt(rec.g_w1p), verdict,
        )))
    with _atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_dump(path, name: str, values: np.ndarray, grid: Grid) -> None:
    """Write one field on the full node lattice.

    Three header lines (node counts per axis, spacings, field name and
    component count) followed by one line per node with the first axis
    index varying fastest.  Vector fields put the components side by
    side on each line.  Every value is printed as format(value, ".17g")
    prints it, from Python floats taken 512 rows at a time.
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
    # one row per node, first axis fastest
    table = comps.transpose(3, 2, 1, 0).reshape(-1, comps.shape[0])
    with _atomic_write(path) as fh:
        fh.write("nodes " + " ".join(str(n) for n in grid.shape) + "\n")
        fh.write("spacing " + " ".join(_fmt(h) for h in grid.h) + "\n")
        fh.write(f"field {name} components {comps.shape[0]}\n")
        row = " ".join(["%.17g"] * comps.shape[0]) + "\n"
        for i in range(0, len(table), 512):
            fh.writelines(row % tuple(r) for r in table[i:i + 512].tolist())


def load_field_dump(path) -> tuple[str, np.ndarray, tuple[float, float, float]]:
    """Read a field dump; returns (name, values, spacings).

    Scalar fields come back 3D, vector fields 4D with the component axis
    first, matching what write_field_dump accepted.  numpy's text reader
    parses the body; a body it rejects, or whose line count differs from
    the nodes line (numpy skips blank lines), is scanned line by line to
    name the file and the first bad line.
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in islice(fh, 3)]
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
        counted = 0

        # numpy skips blank lines, so count the lines it is handed
        def body():
            nonlocal counted
            for counted, line in enumerate(fh, start=1):
                yield line

        try:
            with warnings.catch_warnings():
                # an empty body: the line count below sends it to the scan
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(body(), comments=None, ndmin=2)
        except ValueError:
            table = None
    if table is None or counted != n_nodes or table.shape != (n_nodes, ncomp):
        table = _scan_body(path, n_nodes, ncomp)
    # each component Fortran-ordered, first axis fastest as in the file
    comps = np.ascontiguousarray(table.T).reshape((ncomp,) + nodes[::-1]).transpose(0, 3, 2, 1)
    values = comps[0] if ncomp == 1 else comps
    return name, values, spacing


def _scan_body(path, n_nodes: int, ncomp: int) -> np.ndarray:
    """Read a dump body one line at a time, raising at its first bad line;
    returns the table if every line reads (with values that Python's float
    takes and numpy's reader does not, such as 1_0)."""
    lines = Path(path).read_text().splitlines()[3:]
    if len(lines) != n_nodes:
        raise ValueError(f"field dump {path} has {len(lines)} body lines, "
                         f"its nodes line {n_nodes}")
    rows = []
    for number, line in enumerate(lines, start=4):
        try:
            row = list(map(float, line.split()))
        except ValueError as exc:
            raise ValueError(f"field dump {path}, line {number}: {exc}") from None
        if len(row) != ncomp:
            raise ValueError(f"field dump {path}, line {number} has {len(row)} "
                             f"of its {ncomp} values")
        rows.append(row)
    return np.array(rows)


def write_report_json(path, report) -> None:
    """Write a diagnostics report as sorted, indented JSON."""
    with _atomic_write(path) as fh:
        fh.write(json.dumps(report.as_flat_dict(), indent=2, sort_keys=True) + "\n")


def write_config_echo(path, document: dict) -> None:
    with _atomic_write(path) as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


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
