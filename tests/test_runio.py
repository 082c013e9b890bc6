import os
import tracemalloc

import numpy as np
import pytest

from slipflow.config import config_from_mapping
from slipflow.grid import GeometryConfig, build_grid
from slipflow.picard import IterationRecord
from slipflow.runio import (
    HISTORY_COLUMNS,
    load_field_dump,
    load_verdict,
    write_config_echo,
    write_field_dump,
    write_history,
    write_outputs,
    write_report_json,
    write_verdict,
)
from oracles import load_history


def small_grid(n1=8, n2=4, n3=4):
    return build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n2, n3))


def test_history_header_and_roundtrip(tmp_path):
    path = tmp_path / "history.csv"
    records = (
        IterationRecord(0, 0.0, 0.125, 0.0, 1.5, 0.25),
        IterationRecord(1, 0.1 + 1e-17, 0.03125, 0.25, 1.5, 0.25),
    )
    write_history(path, records, "converged")
    lines = path.read_text().splitlines()
    assert lines[0] == ", ".join(HISTORY_COLUMNS)
    assert len(lines) == 3
    rows = load_history(path)
    assert rows[0]["n"] == 0
    assert rows[1]["verdict"] == "converged"
    # 17 significant digits round-trip doubles exactly
    assert rows[1]["A_n"] == 0.1 + 1e-17
    assert rows[1]["r_n"] == 0.25
    # a verdict may itself hold commas
    band = ("diverged(compute_G: density 2.1 at node (3, 4, 5) "
            "outside admissible band (0.0, 2.0))")
    write_history(path, records, band)
    rows = load_history(path)
    assert [row["verdict"] for row in rows] == [band, band]
    assert rows[1]["G_w1p"] == 0.25


def test_verdict_reads_back_whole(tmp_path):
    # commas included, and the history's rows repeat it after their
    # sixth separator
    records = (IterationRecord(0, 0.0, 0.125, 0.0, 1.5, 0.25),
               IterationRecord(1, 0.5, 0.0625, 0.5, 1.5, 0.25))
    band = ("diverged(compute_G: density 2.1 at node (3, 4, 5) "
            "outside admissible band (0.0, 2.0))")
    for verdict in ("converged", band):
        write_history(tmp_path / "history.csv", records, verdict)
        write_verdict(tmp_path / "verdict.txt", verdict)
        assert load_verdict(tmp_path) == verdict
    # a solve whose first step failed records no row, but keeps its verdict
    write_history(tmp_path / "history.csv", (), band)
    assert load_verdict(tmp_path) == band


@pytest.mark.parametrize("verdict_text, message", [
    (None, "diagnose needs verdict.txt in"),
    ("", "holds 0 lines, not one verdict"),
    ("converged\nconverged\n", "holds 2 lines, not one verdict"),
    ("max_iter\n", "records the verdict 'converged'"),
], ids=["missing", "empty", "two lines", "another run"])
def test_verdict_file_that_cannot_be_the_runs_is_named(verdict_text, message, tmp_path):
    write_history(tmp_path / "history.csv", (IterationRecord(0, 0.0, 0.125, 0.0, 1.5, 0.25),),
                  "converged")
    if verdict_text is not None:
        (tmp_path / "verdict.txt").write_text(verdict_text)
    with pytest.raises(ValueError) as err:
        load_verdict(tmp_path)
    assert str(tmp_path) in str(err.value)
    assert message in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("", "has the header ''"),
    ("n, A_n\n", "has the header 'n, A_n'"),
    (", ".join(HISTORY_COLUMNS) + "\n0, 0, 0, 0, 0\n", "line 2 has 5 of its 7 columns"),
], ids=["empty", "short header", "short row"])
def test_verdict_of_a_broken_history_names_the_file(text, message, tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_verdict(tmp_path)
    assert str(path) in str(err.value)
    assert message in str(err.value)


@pytest.mark.parametrize("header, message", [
    (["nodes 9 5 5"], "has 1 of its 3 header lines"),
    ([], "has 0 of its 3 header lines"),
    (["nodes 9 5", "spacing 0.25 0.25 0.25", "field w components 1"],
     "header line 'nodes 9 5' needs 3 values"),
    (["nodes 9 5 5", "spacing 0.25", "field w components 1"],
     "header line 'spacing 0.25' needs 3 values"),
    (["nodes 9 5 5", "spacing 0.25 0.25 0.25", "field w"], "malformed field header 'field w'"),
    (["grid 9 5 5", "spacing 0.25 0.25 0.25", "field w components 1"],
     "header line 'grid 9 5 5' does not start with 'nodes'"),
    (["", "spacing 0.25 0.25 0.25", "field w components 1"],
     "header line '' does not start with 'nodes'"),
    (["nodes 9 5 5", "9 5 5", "field w components 1"],
     "header line '9 5 5' does not start with 'spacing'"),
    (["nodes 9 0 5", "spacing 0.25 0.25 0.25", "field w components 1"],
     "header line 'nodes 9 0 5' has a count below 1"),
    (["nodes 9 5 5", "spacing 0.25 0.25 0.25", "field w components -1"],
     "header line 'field w components -1' has a count below 1"),
    (["nodes 9 5 5", "spacing 0.25 0.25 0.25", "field w components 0"],
     "header line 'field w components 0' has a count below 1"),
    # the body is counted before anything is allocated for it
    (["nodes 100000 100000 100000", "spacing 0.25 0.25 0.25", "field w components 1", "0"],
     "has 1 body lines, its nodes line 1000000000000000"),
], ids=["nodes line alone", "empty", "two node counts", "one spacing", "no component count",
        "grid keyword", "blank nodes line", "no spacing keyword", "zero node count",
        "negative component count", "zero component count", "huge node count"])
def test_truncated_field_dump_names_the_file(header, message, tmp_path):
    path = tmp_path / "field_w.txt"
    path.write_text("".join(line + "\n" for line in header))
    with pytest.raises(ValueError, match="field_w.txt") as err:
        load_field_dump(path)
    assert message in str(err.value)


def corrupt_vector_dump(tmp_path, line, row):
    """A 3-component dump on small_grid whose given line is replaced by
    row, or dropped if row is None."""
    g = small_grid()
    path = tmp_path / "field_u.txt"
    write_field_dump(path, "u", np.zeros((3, *g.shape)), g)
    lines = path.read_text().splitlines()
    lines[line - 1:line] = [] if row is None else [row]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("row, message", [
    ("0 0", "line 5 has 2 of its 3 values"),
    ("x", "line 5: could not convert string to float: 'x'"),
    ("0 x 0", "line 5: could not convert string to float: 'x'"),
    ("", "line 5 has 0 of its 3 values"),
], ids=["ragged", "non-numeric", "non-numeric inside", "blank"])
def test_corrupt_field_dump_row_names_the_file_and_line(row, message, tmp_path):
    path = corrupt_vector_dump(tmp_path, 5, row)
    with pytest.raises(ValueError, match="field_u.txt") as err:
        load_field_dump(path)
    assert message in str(err.value)


@pytest.mark.parametrize("header", [
    ["nodes 9 x 5", "spacing 0.25 0.25 0.25", "field w components 1"],
    ["nodes 9 5 5", "spacing 0.25 0.25 0.25", "field w components x"],
], ids=["node count", "component count"])
def test_non_numeric_field_header_names_the_file(header, tmp_path):
    path = tmp_path / "field_w.txt"
    path.write_text("".join(line + "\n" for line in header))
    with pytest.raises(ValueError, match="field_w.txt") as err:
        load_field_dump(path)
    assert "header: invalid literal for int() with base 10: 'x'" in str(err.value)


def test_field_dump_body_shorter_than_nodes_line_names_the_file(tmp_path):
    path = corrupt_vector_dump(tmp_path, 5, None)
    n_nodes = int(np.prod(small_grid().shape))
    with pytest.raises(ValueError, match="field_u.txt") as err:
        load_field_dump(path)
    assert f"has {n_nodes - 1} body lines, its nodes line {n_nodes}" in str(err.value)


def test_field_dump_blank_line_after_last_row_names_the_file(tmp_path):
    # numpy's reader skips blank lines; the line count still sees this one
    path = corrupt_vector_dump(tmp_path, 3 + 225 + 1, "")
    with pytest.raises(ValueError, match="field_u.txt") as err:
        load_field_dump(path)
    assert "has 226 body lines, its nodes line 225" in str(err.value)


@pytest.mark.parametrize("newline, pad", [("\r\n", ""), ("\n", "  ")],
                         ids=["CRLF", "trailing spaces"])
def test_field_dump_reads_crlf_and_trailing_spaces(newline, pad, tmp_path):
    g = small_grid()
    vals = np.random.default_rng(5).standard_normal((3,) + g.shape)
    path = tmp_path / "field_u.txt"
    write_field_dump(path, "u", vals, g)
    lines = path.read_text().splitlines()
    path.write_text("".join(line + pad + newline for line in lines), newline="")
    _, loaded, _ = load_field_dump(path)
    assert np.array_equal(loaded, vals)


def test_field_dump_header_lines(tmp_path):
    g = small_grid()
    path = tmp_path / "field_w.txt"
    write_field_dump(path, "w", np.zeros(g.shape), g)
    lines = path.read_text().splitlines()
    assert lines[0] == "nodes 9 5 5"
    assert lines[1].startswith("spacing 0.25 0.25 0.25")
    assert lines[2] == "field w components 1"
    assert len(lines) == 3 + 9 * 5 * 5


def test_field_dump_first_axis_varies_fastest(tmp_path):
    g = small_grid()
    i, j, k = np.indices(g.shape)
    vals = i + 100.0 * j + 10000.0 * k
    path = tmp_path / "field_w.txt"
    write_field_dump(path, "w", vals, g)
    body = path.read_text().splitlines()[3:]
    assert float(body[0]) == 0.0
    assert float(body[1]) == 1.0  # node (1, 0, 0)
    assert float(body[g.shape[0]]) == 100.0  # node (0, 1, 0)
    assert float(body[g.shape[0] * g.shape[1]]) == 10000.0  # node (0, 0, 1)


def test_scalar_dump_roundtrip_is_bit_identical(tmp_path):
    g = small_grid()
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(g.shape) * np.exp(rng.uniform(-30, 30, g.shape))
    path = tmp_path / "field_w.txt"
    write_field_dump(path, "w", vals, g)
    name, loaded, spacing = load_field_dump(path)
    assert name == "w"
    assert spacing == g.h
    assert np.array_equal(loaded, vals)


def test_vector_dump_roundtrip_is_bit_identical(tmp_path):
    g = small_grid()
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((3,) + g.shape)
    path = tmp_path / "field_u.txt"
    write_field_dump(path, "u", vals, g)
    name, loaded, _ = load_field_dump(path)
    assert name == "u"
    assert loaded.shape == (3,) + g.shape
    assert np.array_equal(loaded, vals)


def test_dump_write_and_read_make_no_python_object_per_value(tmp_path):
    # a (32,16,16) velocity, 0.22 MiB: each direction peaks below three
    # times the field's size, which a Python float per value (32 bytes
    # with its list slot, against the array's 8) would exceed
    g = small_grid(32, 16, 16)
    vals = np.random.default_rng(10).standard_normal((3,) + g.shape)
    path = tmp_path / "field_u.txt"
    tracemalloc.start()
    try:
        write_field_dump(path, "u", vals, g)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _, loaded, _ = load_field_dump(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded, vals)
    assert write_peak < 3 * vals.nbytes
    assert read_peak < 3 * vals.nbytes


@pytest.mark.parametrize("ncomp", [1, 3])
def test_field_dump_body_matches_per_value_formatting(ncomp, tmp_path):
    # each body value reads exactly as format(v, ".17g") writes it, signed
    # zero, subnormals, extremes and 17-digit values included
    g = small_grid()
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((ncomp,) + g.shape)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
               2.2250738585072014e-308, 0.1, 1.0 / 3.0, 12345678901234567.0,
               np.nextafter(1.0, 2.0), -9.8765432109876543e-12]
    flat = vals.reshape(-1)
    flat[:len(special)] = special
    path = tmp_path / "field.txt"
    write_field_dump(path, "f", vals[0] if ncomp == 1 else vals, g)
    columns = [vals[c].reshape(-1, order="F") for c in range(ncomp)]
    want = [" ".join(format(float(v), ".17g") for v in entries) for entries in zip(*columns)]
    assert path.read_text().splitlines()[3:] == want


def test_field_dump_rejects_wrong_shape(tmp_path):
    g = small_grid()
    with pytest.raises(ValueError, match="does not match"):
        write_field_dump(tmp_path / "x.txt", "w", np.zeros((4, 4, 4)), g)


def test_writers_leave_no_temp_files(tmp_path):
    g = small_grid()
    write_field_dump(tmp_path / "field_w.txt", "w", np.zeros(g.shape), g)
    write_history(tmp_path / "history.csv", (), "converged")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field_w.txt", "history.csv"]


def test_failed_write_leaves_neither_file(tmp_path):
    path = tmp_path / "config.json"
    with pytest.raises(TypeError):
        write_config_echo(path, {"a": object()})
    assert list(tmp_path.iterdir()) == []


def test_report_json_structure(tmp_path):
    class Stub:
        def as_flat_dict(self):
            return {"b": {"value": 1.0, "tolerance": 2.0, "pass": True},
                    "a": {"value": 0.0, "tolerance": 1.0, "pass": False}}

    path = tmp_path / "report.json"
    write_report_json(path, Stub())
    text = path.read_text()
    # keys are sorted so reruns produce identical bytes
    assert text.index('"a"') < text.index('"b"')
    import json
    payload = json.loads(text)
    assert payload["a"] == {"value": 0.0, "tolerance": 1.0, "pass": False}


def test_write_outputs_produces_standard_artifact_set(tmp_path):
    from slipflow.picard import build_setup, picard_solve

    cfg = config_from_mapping({
        "geometry": {"n1": 8, "n2": 4, "n3": 4},
        "data": {"epsilon": 0.0},
    })
    bundle = picard_solve(build_setup(cfg))
    out = tmp_path / "run"
    written = write_outputs(out, bundle, cfg)
    names = sorted(os.path.basename(p) for p in written)
    assert names == sorted([
        "history.csv", "verdict.txt", "field_u.txt", "field_w.txt",
        "field_v.txt", "field_rho.txt", "config.json",
    ])
    assert (out / "verdict.txt").read_text() == bundle.verdict + "\n"
    rows = load_history(out / "history.csv")
    assert len(rows) <= 2
    assert all(row["A_n"] == 0.0 for row in rows)
    # two writes of the same bundle are byte-identical
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    write_outputs(out, bundle, cfg)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
