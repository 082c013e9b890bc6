"""Run artifacts: history table, field dumps, report, config echo.

Every writer is deterministic (same inputs give byte-identical files) and
atomic (stream into a sibling temp file, removed if the write fails, then
rename), so an interrupted run never leaves a truncated artifact behind.
Floats are printed with 17 significant digits, which round-trips IEEE
doubles exactly.  Field dumps are written 512 rows at a time and their
counted body is parsed by one numpy call, so neither direction holds a
Python object per value of the field.  load_solution and load_verdict
own the layout diagnose reads: which dumps hold u and w, that they hold
them on the configured grid, and the verdict, which verdict.txt keeps
even for a solve that recorded no iteration.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

import numpy as np

from .fields import ScalarField, VectorField
from .grid import Grid

HISTORY_COLUMNS = ("n", "A_n", "d_n", "r_n", "F_lp", "G_w1p", "verdict")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@contextmanager
def _atomic_write(path):
    """Yield a text file that replaces path once the block completes."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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


def write_verdict(path, verdict: str) -> None:
    """Write the solve's verdict as the one line of a text file."""
    with _atomic_write(path) as fh:
        fh.write(verdict + "\n")


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
    first, matching what write_field_dump accepted.  The body lines are
    counted against the nodes line before the table is allocated, then
    parsed by np.loadtxt in one call; any error names the file and, in
    the body, the first bad line, which a line scan finds only once
    numpy has rejected the body or skipped a blank line.
    """
    with open(path) as fh:
        lines = [fh.readline() for _ in range(3)]
        if not lines[2]:
            raise ValueError(f"field dump {path} has {sum(map(bool, lines))} of its 3 header lines")
        lines = [line.rstrip("\n") for line in lines]
        for line, key in ((lines[0], "nodes"), (lines[1], "spacing")):
            if line.split()[:1] != [key]:
                raise ValueError(f"field dump {path}: header line {line!r} "
                                 f"does not start with {key!r}")
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
        for line, counts in ((lines[0], nodes), (lines[2], (ncomp,))):
            if min(counts) < 1:
                raise ValueError(f"field dump {path}: header line {line!r} has a count below 1")
        n_nodes = math.prod(nodes)
        body = fh.tell()
        counted = sum(1 for _ in fh)
        if counted != n_nodes:
            raise ValueError(f"field dump {path} has {counted} body lines, "
                             f"its nodes line {n_nodes}")
        fh.seek(body)
        try:
            table = np.loadtxt(fh, comments=None, ndmin=2)
            if table.shape != (n_nodes, ncomp):  # numpy skips blank lines
                raise ValueError(f"the body reads as a table of shape {table.shape}")
        except ValueError as exc:
            fh.seek(body)
            _name_first_bad_line(fh, path, ncomp)
            raise ValueError(f"field dump {path}: {exc}") from None
    # each component Fortran-ordered, first axis fastest as in the file
    comps = np.ascontiguousarray(table.T).reshape((ncomp,) + nodes[::-1]).transpose(0, 3, 2, 1)
    values = comps[0] if ncomp == 1 else comps
    return name, values, spacing


def _name_first_bad_line(lines, path, ncomp: int) -> None:
    """Raise for the first of lines, a dump body from line 4 on, that
    float() cannot read or that does not hold ncomp values."""
    for number, line in enumerate(lines, start=4):
        try:
            width = len([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise ValueError(f"field dump {path}, line {number}: {exc}") from None
        if width != ncomp:
            raise ValueError(f"field dump {path}, line {number} has {width} "
                             f"of its {ncomp} values") from None


def load_solution(out_dir, grid: Grid) -> tuple[VectorField, ScalarField]:
    """Read the u and w a solve dumped in out_dir, checking that each dump
    names its own field and has grid's node counts and spacings."""
    out = Path(out_dir)
    paths = [out / f"field_{name}.txt" for name in ("u", "w")]
    if not all(path.exists() for path in paths):
        raise ValueError(f"diagnose needs field_u.txt and field_w.txt in {out_dir}; "
                         "run solve first")
    values = []
    for path, name, shape in zip(paths, ("u", "w"), ((3,) + grid.shape, grid.shape)):
        found, vals, spacing = load_field_dump(path)
        if found != name:
            raise ValueError(f"field dump {path} holds field {found!r}, not {name!r}")
        if vals.shape != shape:
            raise ValueError(f"dumped fields in {out_dir} do not match the configured "
                             f"grid {grid.shape}")
        if spacing != grid.h:
            raise ValueError(f"dumped fields in {out_dir} have spacing {spacing}, "
                             f"the configured grid has spacing {grid.h}")
        values.append(vals)
    return VectorField(grid, values[0]), ScalarField(grid, values[1])


def load_verdict(out_dir) -> str:
    """The verdict of the solve that wrote out_dir, from verdict.txt,
    which holds it even when the solve recorded no iteration.  The
    history.csv beside it must have its header, and its rows repeat the
    verdict as their last column, which may itself hold commas (the
    density band names a node and the band), so it is all of a row after
    its sixth separator: a last row that reads another verdict means the
    directory mixes two runs."""
    out = Path(out_dir)
    path = out / "history.csv"
    if not path.exists():
        raise ValueError(f"diagnose needs history.csv in {out_dir}; run solve first")
    header, *rows = path.read_text().splitlines() or [""]
    if header != ", ".join(HISTORY_COLUMNS):
        raise ValueError(f"history {path} has the header {header!r}, "
                         f"not {', '.join(HISTORY_COLUMNS)!r}")
    recorded = None
    if rows:
        cells = rows[-1].split(", ", len(HISTORY_COLUMNS) - 1)
        if len(cells) < len(HISTORY_COLUMNS):
            raise ValueError(f"history {path}, line {len(rows) + 1} has {len(cells)} "
                             f"of its {len(HISTORY_COLUMNS)} columns")
        recorded = cells[-1]
    stored = out / "verdict.txt"
    if not stored.exists():
        raise ValueError(f"diagnose needs verdict.txt in {out_dir}; run solve first")
    lines = stored.read_text().splitlines()
    if len(lines) != 1 or not lines[0]:
        raise ValueError(f"verdict file {stored} holds {len(lines)} lines, not one verdict")
    if recorded not in (None, lines[0]):
        raise ValueError(f"history {path} records the verdict {recorded!r}, "
                         f"{stored} {lines[0]!r}")
    return lines[0]


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

    verdict_path = out / "verdict.txt"
    write_verdict(verdict_path, bundle.verdict)
    written.append(str(verdict_path))

    for name, fld in (("u", bundle.u), ("w", bundle.w), ("v", bundle.v), ("rho", bundle.rho)):
        path = out / f"field_{name}.txt"
        write_field_dump(path, name, fld.values, fld.grid)
        written.append(str(path))

    echo_path = out / "config.json"
    write_config_echo(echo_path, config.document)
    written.append(str(echo_path))
    return written
