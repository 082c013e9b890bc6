import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slipflow import cli, lame, study
from slipflow.cli import main
from slipflow.krylov import KrylovError
from slipflow.config import parse_config
from slipflow.material import reference_flow
from slipflow.picard import build_setup, picard_solve
from slipflow.runio import load_field_dump
from slipflow.transport import make_transport_field
from oracles import load_history


def write_config(tmp_path, extra=None):
    doc = {
        "geometry": {"n1": 8, "n2": 4, "n3": 4},
        "data": {"epsilon": 0.0},
        "output": {"directory": str(tmp_path / "out")},
    }
    for block, vals in (extra or {}).items():
        doc.setdefault(block, {}).update(vals)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def test_solve_zero_data_exits_clean(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    rows = load_history(out / "history.csv")
    assert len(rows) <= 2
    assert all(row["A_n"] == 0.0 for row in rows)
    assert all(row["verdict"] == "converged" for row in rows)
    for name in ("field_u.txt", "field_w.txt", "field_v.txt", "field_rho.txt"):
        assert (out / name).exists()
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["data"]["epsilon"] == 0.0
    assert echoed["solver"]["max_outer"] == 50
    assert "verdict: converged" in capsys.readouterr().out


def test_solve_twice_is_bit_identical(tmp_path):
    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2}})
    assert main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["solve", "--config", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_solve_prints_each_steps_linear_work(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2}})
    assert main(["solve", "--config", str(cfg)]) == 0
    # each step line ends with the step's transport certificate
    printed = re.findall(r"^step (\d+): (\d+) sweeps, (\d+) Krylov iterations, linear residual "
                         r"(\S+), axial deviation (\S+), wall trace defect (\S+)$",
                         capsys.readouterr().out, re.MULTILINE)
    setup = build_setup(parse_config(cfg))
    history = picard_solve(setup).history
    assert len(history) >= 2
    assert printed == [
        (str(rec.n), str(rec.sweeps), str(rec.inner_iterations), f"{rec.linear_residual:.2e}",
         f"{rec.sup_axial_dev:.2e}", f"{rec.wall_trace_defect:.2e}")
        for rec in history
    ]
    # the first step starts from zero, so it transports along e1 + u0
    first = make_transport_field(setup.grid, reference_flow(setup.grid) + setup.data.u0.values)
    assert (history[0].sup_axial_dev, history[0].wall_trace_defect) == (
        first.sup_axial_dev, first.wall_trace_defect)


def test_solve_reconstructs_physical_fields(tmp_path):
    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2}})
    assert main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    _, u, _ = load_field_dump(out / "field_u.txt")
    _, v, _ = load_field_dump(out / "field_v.txt")
    _, w, _ = load_field_dump(out / "field_w.txt")
    _, rho, _ = load_field_dump(out / "field_rho.txt")
    # v = e1 + u + u0 and rho = 1 + w; the lifted part is small here
    assert np.allclose(rho, 1.0 + w)
    assert np.max(np.abs(v[0] - 1.0 - u[0])) < 0.1
    assert abs(np.mean(v[0]) - 1.0) < 0.1


def test_solve_nonconverged_exits_one(tmp_path):
    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2},
                                  "solver": {"max_outer": 1}})
    assert main(["solve", "--config", str(cfg)]) == 1


def solve_diverging_duct(tmp_path, capsys):
    """Solve the 0.4 duct, which leaves the perturbative regime after one
    step; returns its config path and the stdout of solve."""
    cfg = tmp_path / "duct.json"
    cfg.write_text(json.dumps({"geometry": {"length": 0.4, "width2": 0.4, "width3": 0.4},
                               "output": {"directory": str(tmp_path / "out")}}))
    assert main(["solve", "--config", str(cfg)]) == 1
    return cfg, capsys.readouterr().out


def test_solve_prints_the_size_of_the_iterate_it_returns(tmp_path, capsys):
    # the one recorded step started from zero, a_0 = 0; the iterate the
    # verdict names, and the dumps hold, is the one after it
    cfg, out = solve_diverging_duct(tmp_path, capsys)
    verdict = "diverged(iterate size 1.338e+00 left the perturbative regime)"
    assert f"verdict: {verdict} after 1 iterations" in out
    assert "iterate size A_n = 1.338e+00\n" in out
    rows = load_history(tmp_path / "out" / "history.csv")
    assert [row["A_n"] for row in rows] == [0.0]


def test_diagnose_prints_the_verdict_of_the_run_it_grades(tmp_path, capsys):
    # the rows, not the stored verdict, decide the exit status
    cfg, _ = solve_diverging_duct(tmp_path, capsys)
    assert main(["diagnose", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("solve verdict: diverged(iterate size 1.338e+00 "
                      "left the perturbative regime)")
    assert out[-1] == "diagnose: FAIL"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failing = {name for name, entry in report.items() if not entry["pass"]}
    assert failing == {"gradient_structure", "momentum_identity_l2"}


def test_solve_that_fails_on_its_first_step_keeps_its_verdict(tmp_path, capsys):
    # at epsilon 0.6 the first step's transport field is too slow: no
    # history row is written, but verdict.txt keeps the verdict diagnose
    # prints
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps({"data": {"epsilon": 0.6},
                               "output": {"directory": str(tmp_path / "out")}}))
    assert main(["solve", "--config", str(cfg)]) == 1
    verdict = "diverged(axial transport speed fell to 0.4 < 1/2; "
    assert f"verdict: {verdict}" in capsys.readouterr().out
    out = tmp_path / "out"
    assert load_history(out / "history.csv") == []
    assert (out / "verdict.txt").read_text().startswith(verdict)
    assert main(["diagnose", "--config", str(cfg)]) == 1
    assert capsys.readouterr().out.splitlines()[0].startswith(f"solve verdict: {verdict}")


def test_diagnose_requires_the_history(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    (tmp_path / "out" / "history.csv").unlink()
    assert main(["diagnose", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert (f"error: diagnose needs history.csv in {tmp_path / 'out'}; "
            "run solve first") in captured.err
    assert "diagnose:" not in captured.out


def test_mode_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2}})
    assert main(["solve", "--config", str(cfg), "--mode", "monolithic"]) == 0
    echoed = json.loads((tmp_path / "out" / "config.json").read_text())
    assert echoed["solver"]["mode"] == "monolithic"


def test_out_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["solve", "--config", str(cfg), "--out", str(other)]) == 0
    assert (other / "history.csv").exists()
    assert not (tmp_path / "out").exists()


def test_out_path_that_is_a_file_fails_before_the_solve(tmp_path, monkeypatch, capsys):
    def solve_not_reached(setup):
        raise AssertionError("picard_solve ran before the output directory was made")

    monkeypatch.setattr(cli, "picard_solve", solve_not_reached)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["solve", "--config", str(write_config(tmp_path)), "--out", str(taken)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_reports_error_and_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"physics": {"mu": -2.0}}))
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "physics.mu" in err


def test_diagnose_requires_prior_dump(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["diagnose", "--config", str(cfg)]) == 2
    assert "run solve first" in capsys.readouterr().err


def test_diagnose_after_solve_writes_report(tmp_path, capsys):
    # default-data run at the scale the audit tolerances are calibrated for
    cfg = write_config(tmp_path, {"geometry": {"n1": 16, "n2": 8, "n3": 8},
                                  "data": {"epsilon": 1e-2},
                                  "solver": {"mode": "monolithic"}})
    assert main(["solve", "--config", str(cfg)]) == 0
    assert main(["diagnose", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report) >= {"energy_identity", "gradient_structure", "apriori_ratio"}
    for entry in report.values():
        assert set(entry) == {"value", "tolerance", "pass"}
        assert entry["pass"] is True
    assert "diagnose: PASS" in capsys.readouterr().out


def test_diagnose_grades_apriori_ratio_in_the_run_exponent(tmp_path):
    from slipflow.diagnostics import apriori_ratio
    from slipflow.fields import ScalarField, VectorField
    from slipflow.material import PerturbationData, compute_F, compute_G

    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2},
                                  "solver": {"mode": "monolithic", "p": 6.0}})
    assert main(["solve", "--config", str(cfg)]) == 0
    main(["diagnose", "--config", str(cfg)])
    report = json.loads((tmp_path / "out" / "report.json").read_text())

    setup = build_setup(parse_config(cfg))
    _, u_vals, _ = load_field_dump(tmp_path / "out" / "field_u.txt")
    _, w_vals, _ = load_field_dump(tmp_path / "out" / "field_w.txt")
    u, w = VectorField(setup.grid, u_vals), ScalarField(setup.grid, w_vals)
    args = (u, w, compute_F(u, w, setup.data, setup.params), compute_G(u, w, setup.data))
    assert setup.data.p == 6.0
    data4 = PerturbationData.measured(setup.data.u0, setup.data.normal_trace,
                                     setup.data.slip_data, setup.data.w_in, 4.0)
    assert report["apriori_ratio"]["value"] == apriori_ratio(*args, setup.data)
    assert apriori_ratio(*args, setup.data) != apriori_ratio(*args, data4)


def test_diagnose_sums_each_trace_seminorm_once(tmp_path, monkeypatch):
    # the set-up measures the data once per face and the a-priori ratio
    # reads those measures: six faces, six seminorm sums
    from slipflow import fields

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"output": {"directory": str(tmp_path / "out")}}))
    assert main(["solve", "--config", str(cfg)]) == 0
    original, calls = fields.face_gagliardo_pow, []

    def counting(face, vals, p):
        calls.append(face.name)
        return original(face, vals, p)

    monkeypatch.setattr(fields, "face_gagliardo_pow", counting)
    assert main(["diagnose", "--config", str(cfg)]) == 0
    assert sorted(calls) == ["inflow", "outflow", "y0", "y1", "z0", "z1"]


def test_diagnose_reports_truncated_dump_and_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2}})
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    w_path = tmp_path / "out" / "field_w.txt"
    w_path.write_text(w_path.read_text().splitlines()[0] + "\n")  # the nodes line alone
    assert main(["diagnose", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert str(w_path) in captured.err
    assert "diagnose:" not in captured.out


def test_diagnose_reports_corrupt_dump_row_and_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2}})
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    u_path = tmp_path / "out" / "field_u.txt"
    lines = u_path.read_text().splitlines()
    lines[3] = "0 0"  # the first body row, one value short
    u_path.write_text("\n".join(lines) + "\n")
    assert main(["diagnose", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"error: field dump {u_path}, line 4 has 2 of its 3 values" in captured.err
    assert "diagnose:" not in captured.out


@pytest.mark.parametrize("source, target", [
    ("v", "u"),
    ("rho", "w"),
], ids=["v over u", "rho over w"])
def test_diagnose_rejects_a_dump_of_another_field(source, target, tmp_path, capsys):
    # the physical fields sit next to u and w with the same shapes
    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2}})
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    shutil.copyfile(out / f"field_{source}.txt", out / f"field_{target}.txt")
    assert main(["diagnose", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert (f"error: field dump {out / f'field_{target}.txt'} holds field '{source}', "
            f"not '{target}'") in captured.err
    assert "diagnose:" not in captured.out


def test_diagnose_rejects_mismatched_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"epsilon": 1e-2}})
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    # other node counts; same node counts on another geometry (other spacing)
    for geometry, message in (
        ({"n1": 12, "n2": 6, "n3": 6}, "do not match the configured grid"),
        ({"length": 3.0, "width2": 0.5},
         "have spacing (0.25, 0.25, 0.25), the configured grid has spacing (0.375, 0.125, 0.25)"),
    ):
        other = write_config(tmp_path, {"geometry": geometry, "data": {"epsilon": 1e-2}})
        assert main(["diagnose", "--config", str(other)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "diagnose:" not in captured.out


TRANSCRIPTS = Path(__file__).resolve().parent / "transcripts"


def test_verify_monolithic_passes_and_prints_orders(capsys):
    # every number to 4 significant digits: a change that means to move
    # them re-records the transcript
    assert main(["verify", "--mode", "monolithic"]) == 0
    assert capsys.readouterr().out == (TRANSCRIPTS / "verify-monolithic.txt").read_text()


def test_verify_gates_the_density_order(monkeypatch, capsys):
    # an O(h) error in w: the density order falls to about 1, the
    # velocity order stays above its bound, and verify fails
    def first_order_w(op, *args, **kwargs):
        res = lame.solve_linear_step(op, *args, **kwargs)
        x1, x2, x3 = op.grid.meshgrid()
        res.w.values[...] += op.grid.h[0] * np.cos(x1) * np.cos(np.pi * x2) * np.cos(np.pi * x3)
        return res

    monkeypatch.setattr(study, "solve_linear_step", first_order_w)
    assert main(["verify", "--mode", "monolithic"]) == 1
    out = capsys.readouterr().out
    orders = re.search(r"velocity order (\S+), density order (\S+)", out)
    assert float(orders.group(1)) >= study.VELOCITY_ORDER_MIN
    assert float(orders.group(2)) < study.DENSITY_ORDER_MIN
    assert out.splitlines()[-1].startswith("verify: FAIL")


def test_verify_reports_krylov_failure_and_exits_two(monkeypatch, capsys):
    # a split sweep's momentum solve stops at a tenth of its warm-start
    # residual, which one iteration reaches, so it is made to fail here
    def failing(*args, **kwargs):
        raise KrylovError("linear solve did not converge within the iteration cap", 1.0, 1)

    monkeypatch.setattr(lame, "krylov_solve", failing)
    assert main(["verify"]) == 2
    assert "error: linear solve did not converge" in capsys.readouterr().err


def test_transport_test_passes(capsys):
    assert main(["transport-test"]) == 0
    assert capsys.readouterr().out == (TRANSCRIPTS / "transport-test.txt").read_text()


def test_linear_pressure_law_solves_and_passes_every_audit(tmp_path):
    # pi(rho) = 2 rho on the default data: the physical momentum row
    # evaluates the law itself, not only its slope
    cfg = write_config(tmp_path, {"geometry": {"n1": 16, "n2": 8, "n3": 8},
                                  "data": {"epsilon": 1e-2},
                                  "physics": {"pressure": {"kind": "linear", "coefficient": 2.0}}})
    assert main(["solve", "--config", str(cfg)]) == 0
    assert main(["diagnose", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report) == 12 and all(entry["pass"] for entry in report.values())
    assert report["momentum_identity_l2"]["value"] <= 1e-9


def test_build_setup_wires_solver_settings():
    from slipflow.config import config_from_mapping

    cfg = config_from_mapping({
        "geometry": {"n1": 8, "n2": 4, "n3": 4},
        "solver": {"mode": "monolithic", "outer_tol": 1e-7, "max_outer": 12,
                   "inner_tol": 1e-9},
    })
    setup = build_setup(cfg)
    assert setup.solver.mode == "monolithic"
    assert setup.solver.outer_tol == 1e-7
    assert setup.solver.max_outer == 12
    assert setup.solver.inner_tol == 1e-9
    assert setup.grid.shape == (9, 5, 5)
    assert setup.data.b_measure > 0.0


PACKAGE_API = {
    "config_from_mapping", "parse_config", "ConfigError", "RunConfig",
    "build_setup", "ProblemSetup", "picard_solve", "SolutionBundle",
    "GeometryConfig", "build_grid", "norm", "NormKind", "apply_S", "main",
}


def test_package_surface():
    import slipflow

    assert len(slipflow.__all__) == len(PACKAGE_API)
    assert set(slipflow.__all__) == PACKAGE_API
    for name in slipflow.__all__:
        assert getattr(slipflow, name) is not None
    assert slipflow.build_setup is slipflow.picard.build_setup is slipflow.cli.build_setup
    # a bare import must bind the cli module, in a fresh interpreter, and
    # leave scipy.integrate unloaded; sympy is a test oracle only, so even
    # deriving a manufactured case must not load it
    src = Path(slipflow.__file__).resolve().parents[1]
    probe = (
        "import sys, slipflow; assert callable(slipflow.cli.main); "
        "assert 'scipy.integrate' not in sys.modules; "
        "from slipflow.grid import GeometryConfig, build_grid; "
        "from slipflow.material import FlowParams; from slipflow.mms import build_linear_case; "
        "build_linear_case(build_grid(GeometryConfig(2.0, 1.0, 1.0, 8, 4, 4)), FlowParams()); "
        "assert 'sympy' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)


def test_python_dash_m_runs_the_cli():
    import slipflow

    env = dict(os.environ, PYTHONPATH=str(Path(slipflow.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "slipflow", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "transport-test" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["explode"])


def _imported_modules(tree):
    """Every module an import in tree names, absolute; a relative import
    is within slipflow, whose modules all sit at the top of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"slipflow.{base}".rstrip(".")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_library_modules_do_not_import_the_cli():
    # only the package entry points import slipflow.cli; every other
    # module is library code the CLI is built on
    importers = {
        path.name
        for path in Path(lame.__file__).parent.glob("*.py")
        if any(name == "slipflow.cli" or name.startswith("slipflow.cli.")
               for name in _imported_modules(ast.parse(path.read_text())))
    }
    assert importers == {"__init__.py", "__main__.py"}
