"""Tests of the benchmark's own arithmetic and checks.

  python3 -m pytest -q bench/selftest.py

Kept out of the package's test suite on purpose (the file name does not
match test_*.py); these tests need no solve and run in about a second.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
from tracer import Patcher, Span, Tracer, build_wrappers, layer_self_time, self_times  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("picard.picard_solve", 0.0, 10.0, None),
        Span("lame.solve_linear_step", 1.0, 4.0, 0),
        Span("krylov.krylov_solve", 2.0, 3.0, 1),
        Span("lame.solve_linear_step", 3.0, 6.0, 0),  # overlaps its sibling
        Span("transport.apply_S", 8.0, 12.0, 0),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    assert layer_self_time(spans, "lame") == pytest.approx(5.0)
    assert layer_self_time(spans, "picard") == pytest.approx(3.0)


def test_tracer_records_parents_and_rejects_out_of_order_ends():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    outer = tr.begin("picard.picard_solve")
    inner = tr.begin("lame.solve_linear_step")
    tr.end(inner)
    tr.end(outer)
    assert [s.parent for s in tr.spans] == [None, 0]
    assert tr.has_ancestor(tr.spans[1], "picard.picard_solve")
    assert metrics.span_self_check(tr)[1]
    a = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.end(a)


def test_patcher_covers_every_alias_and_restores_them():
    import slipflow
    from slipflow import cli, lame, transport

    original = transport.apply_S
    tr = Tracer()
    patcher = Patcher(build_wrappers(tr, metrics.TRACED))
    patcher.install()
    try:
        for module in (slipflow, cli, lame, transport):
            assert module.apply_S is not original
        assert slipflow.norm is slipflow.picard.norm is slipflow.diagnostics.norm
    finally:
        patcher.restore()
    for module in (slipflow, cli, lame, transport):
        assert module.apply_S is original
    assert not patcher.patched


def _fake_bundle(grid):
    rng = np.random.default_rng(0)
    history = tuple(
        SimpleNamespace(n=n, a_n=rng.random(), d_n=rng.random(), r_n=rng.random(),
                        f_lp=rng.random(), g_w1p=rng.random())
        for n in range(3)
    )

    def field(*lead):
        return SimpleNamespace(values=rng.standard_normal((*lead, *grid.shape)), grid=grid)

    return SimpleNamespace(history=history, verdict="converged",
                           u=field(3), w=field(), v=field(3), rho=field())


@pytest.fixture
def written_run(tmp_path):
    from slipflow import GeometryConfig, build_grid, runio

    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, 4, 4, 4))
    bundle = _fake_bundle(grid)
    runio.write_history(tmp_path / "history.csv", bundle.history, bundle.verdict)
    for name in checks.DUMPED_FIELDS:
        fld = getattr(bundle, name)
        runio.write_field_dump(tmp_path / f"field_{name}.txt", name, fld.values, grid)
    return tmp_path, bundle


def test_intact_artifacts_pass(written_run):
    out, bundle = written_run
    assert [ok for _, ok, _ in checks.artifact_checks(out, bundle)] == [True] * 5


@pytest.mark.parametrize("corrupt", [
    lambda text: text.replace(text.splitlines()[3], "0.5", 1),  # one value changed
    lambda text: text[: len(text) // 2],  # truncated body
    lambda text: text.replace("components", "comps", 1),  # broken header
])
def test_corrupted_field_dump_is_a_failed_operation(written_run, corrupt):
    out, bundle = written_run
    path = out / "field_w.txt"
    path.write_text(corrupt(path.read_text()))
    ops = checks.artifact_checks(out, bundle)
    failed = [name for name, ok, _ in ops if not ok]
    assert failed == ["field_w.txt matches"]


def test_reference_gap_beyond_tolerance_fails(tmp_path):
    grid = SimpleNamespace(shape=(3, 3, 3))
    bundle = _fake_bundle(grid)
    ref = tmp_path / "ref.npz"
    np.savez(ref, u=bundle.u.values, w=bundle.w.values + 1e-6)
    assert not checks.reference_check(bundle, 1e-9, 1e-11, ref)[1]
    np.savez(ref, u=bundle.u.values, w=bundle.w.values + 1e-9)
    assert checks.reference_check(bundle, 1e-9, 1e-11, ref)[1]


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        metrics.per_layer_spec())
