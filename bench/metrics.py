"""Metric names, the functions the traced run wraps, and the per-layer
numbers and count cross-checks derived from a finished trace."""
from __future__ import annotations

from tracer import Tracer, layer_self_time, self_times

# (name, unit, better) in the order BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# every public function the traced run wraps, as module.function
TRACED = (
    "transport.apply_S",
    "transport.make_transport_field",
    "transport.upwind_march",
    "lame.solve_linear_step",
    "lame.solve_momentum",
    "lame.build_lame_operator",
    "krylov.krylov_solve",
    "picard.picard_solve",
    "material.compute_F",
    "material.compute_G",
    "material.assemble_perturbation_data",
    "fields.norm",
    "diagnostics.run_diagnostics",
    "diagnostics.energy_identity_residual",
    "diagnostics.vorticity_boundary_residual",
    "diagnostics.helmholtz_decompose",
    "diagnostics.gradient_structure_residual",
    "diagnostics.apriori_ratio",
    "diagnostics.reflection_residual",
    "mms.build_linear_case",
    "runio.write_outputs",
    "runio.load_field_dump",
    "config.config_from_mapping",
    "cli.build_setup",
)

NORM_KINDS = ("h1", "linf_l2", "lp", "w1p", "w2p")
AUDITS = (
    ("energy", "energy_identity_residual"),
    ("vorticity", "vorticity_boundary_residual"),
    ("helmholtz", "helmholtz_decompose"),
    ("gradient_structure", "gradient_structure_residual"),
    ("apriori", "apriori_ratio"),
    ("reflection", "reflection_residual"),
)

# the callers krylov_solve is expected to have; any other parent span is an
# alias the patcher missed or a new caller the cross-check must learn about
KRYLOV_CALLERS = (
    "lame.solve_momentum",
    "lame.solve_linear_step",
    "diagnostics.helmholtz_decompose",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    s, n = "s", "count"
    spec = [
        ("transport.apply_S_s", s, "lower"),
        ("transport.apply_S_calls", n, "lower"),
        ("transport.applies_per_field", n, "lower"),
        ("transport.nodes_traced", n, "lower"),
        ("transport.apply_S_us_per_node", "us", "lower"),
        ("transport.apply_S_share_of_solve", "ratio", "lower"),
        ("transport.make_transport_field_s", s, "lower"),
        ("transport.upwind_march_s", s, "lower"),
        ("lame.solve_linear_step_s", s, "lower"),
        ("lame.linear_steps", n, "lower"),
        ("lame.solve_momentum_s", s, "lower"),
        ("lame.solve_momentum_calls", n, "lower"),
        ("lame.sweeps_per_step", n, "lower"),
        ("lame.build_lame_operator_s", s, "lower"),
        ("lame.self_s", s, "lower"),
        ("krylov.krylov_solve_s", s, "lower"),
        ("krylov.solves", n, "lower"),
        ("krylov.iterations", n, "lower"),
        ("krylov.iterations_per_solve", n, "lower"),
        ("krylov.matvecs", n, "lower"),
        ("krylov.matvec_s", s, "lower"),
        ("krylov.failures", n, "lower"),
        ("krylov.share_of_solve", "ratio", "lower"),
        ("picard.picard_solve_s", s, "lower"),
        ("picard.outer_iterations", n, "lower"),
        ("picard.self_s", s, "lower"),
        ("material.compute_F_s", s, "lower"),
        ("material.compute_G_s", s, "lower"),
        ("material.assemble_perturbation_data_s", s, "lower"),
        ("fields.norm_s", s, "lower"),
        ("fields.norm_calls", n, "lower"),
    ]
    spec += [(f"fields.norm.{kind}_s", s, "lower") for kind in NORM_KINDS]
    spec.append(("diagnostics.run_diagnostics_s", s, "lower"))
    spec += [(f"diagnostics.{audit}_s", s, "lower") for audit, _ in AUDITS]
    spec += [
        ("mms.build_linear_case_s", s, "lower"),
        ("mms.build_linear_case_calls", n, "lower"),
        ("runio.write_outputs_s", s, "lower"),
        ("runio.bytes_written", "B", "lower"),
        ("runio.load_field_dump_s", s, "lower"),
        ("slipflow.import_s", s, "lower"),
        ("config.config_from_mapping_s", s, "lower"),
        ("cli.build_setup_s", s, "lower"),
        ("trace.run_s", s, "lower"),
        ("trace.spans", n, "lower"),
    ]
    return spec


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _share_inside(tr: Tracer, name: str, outer: str) -> float:
    inside = sum(s.duration for s in tr.spans if s.name == name and tr.has_ancestor(s, outer))
    return _ratio(inside, tr.total(outer))


def layer_metrics(tr: Tracer, import_s: float, run_s: float) -> dict[str, float]:
    """Every per-layer metric of per_layer_spec() from one finished trace."""
    c = tr.counters
    m: dict[str, float] = {}
    apply_calls = tr.calls("transport.apply_S")
    m["transport.apply_S_s"] = tr.total("transport.apply_S")
    m["transport.apply_S_calls"] = apply_calls
    m["transport.applies_per_field"] = _ratio(apply_calls, c["transport.fields"])
    m["transport.nodes_traced"] = c["transport.nodes_traced"]
    m["transport.apply_S_us_per_node"] = 1e6 * _ratio(
        m["transport.apply_S_s"], c["transport.nodes_traced"])
    m["transport.apply_S_share_of_solve"] = _share_inside(
        tr, "transport.apply_S", "picard.picard_solve")
    m["transport.make_transport_field_s"] = tr.total("transport.make_transport_field")
    m["transport.upwind_march_s"] = tr.total("transport.upwind_march")

    m["lame.solve_linear_step_s"] = tr.total("lame.solve_linear_step")
    m["lame.linear_steps"] = tr.calls("lame.solve_linear_step")
    m["lame.solve_momentum_s"] = tr.total("lame.solve_momentum")
    m["lame.solve_momentum_calls"] = tr.calls("lame.solve_momentum")
    split_steps = sum(1 for s in tr.spans if s.name == "lame.solve_linear_step" and s.tag == "split")
    m["lame.sweeps_per_step"] = _ratio(m["lame.solve_momentum_calls"], split_steps)
    m["lame.build_lame_operator_s"] = tr.total("lame.build_lame_operator")
    m["lame.self_s"] = layer_self_time(tr.spans, "lame")

    solves = tr.calls("krylov.krylov_solve")
    m["krylov.krylov_solve_s"] = tr.total("krylov.krylov_solve")
    m["krylov.solves"] = solves
    m["krylov.iterations"] = c["krylov.iterations"]
    m["krylov.iterations_per_solve"] = _ratio(c["krylov.iterations"], solves)
    m["krylov.matvecs"] = tr.calls("krylov.matvec")
    m["krylov.matvec_s"] = tr.total("krylov.matvec")
    m["krylov.failures"] = c["krylov.failures"]
    m["krylov.share_of_solve"] = _share_inside(tr, "krylov.krylov_solve", "picard.picard_solve")

    m["picard.picard_solve_s"] = tr.total("picard.picard_solve")
    m["picard.outer_iterations"] = c["picard.outer_iterations"]
    m["picard.self_s"] = layer_self_time(tr.spans, "picard")

    for name in ("compute_F", "compute_G", "assemble_perturbation_data"):
        m[f"material.{name}_s"] = tr.total(f"material.{name}")

    m["fields.norm_s"] = tr.total("fields.norm")
    m["fields.norm_calls"] = tr.calls("fields.norm")
    for kind in NORM_KINDS:
        m[f"fields.norm.{kind}_s"] = sum(
            s.duration for s in tr.spans if s.name == "fields.norm" and s.tag == kind)

    m["diagnostics.run_diagnostics_s"] = tr.total("diagnostics.run_diagnostics")
    for audit, fn in AUDITS:
        m[f"diagnostics.{audit}_s"] = tr.total(f"diagnostics.{fn}")

    m["mms.build_linear_case_s"] = tr.total("mms.build_linear_case")
    m["mms.build_linear_case_calls"] = tr.calls("mms.build_linear_case")
    m["runio.write_outputs_s"] = tr.total("runio.write_outputs")
    m["runio.bytes_written"] = c["runio.bytes_written"]
    m["runio.load_field_dump_s"] = tr.total("runio.load_field_dump")
    m["slipflow.import_s"] = import_s
    m["config.config_from_mapping_s"] = tr.total("config.config_from_mapping")
    m["cli.build_setup_s"] = tr.total("cli.build_setup")
    m["trace.run_s"] = run_s
    m["trace.spans"] = len(tr.spans)
    return {k: float(v) for k, v in m.items()}


def cross_checks(tr: Tracer, workload: str, m: dict[str, float]) -> list[tuple[str, bool, str]]:
    """Counts taken at different layers that must agree: (name, ok, detail)."""
    checks = []

    def expect(name, got, want):
        checks.append((name, got == want, f"{got:g} vs {want:g}"))

    steps_in_picard = sum(
        1 for s in tr.spans
        if s.name == "lame.solve_linear_step" and tr.has_ancestor(s, "picard.picard_solve"))
    expect("linear steps inside picard == outer iterations",
           steps_in_picard, m["picard.outer_iterations"])
    applies_in_steps = sum(
        1 for s in tr.spans
        if s.name == "transport.apply_S" and tr.parent_name(s) == "lame.solve_linear_step")
    expect("apply_S inside linear steps == momentum sweeps",
           applies_in_steps, m["lame.solve_momentum_calls"])
    if workload == "split-default":
        expect("apply_S calls == momentum sweeps",
               m["transport.apply_S_calls"], m["lame.solve_momentum_calls"])
        expect("linear steps == outer iterations",
               m["lame.linear_steps"], m["picard.outer_iterations"])

    by_caller = {name: 0 for name in KRYLOV_CALLERS}
    for s in tr.spans:
        if s.name == "krylov.krylov_solve":
            caller = tr.parent_name(s)
            by_caller[caller] = by_caller.get(caller, 0) + 1
    unknown = sorted(set(by_caller) - set(KRYLOV_CALLERS), key=str)
    checks.append(("krylov_solve has only known callers", not unknown, f"unknown {unknown}"))
    expect("krylov solves == sum over callers", m["krylov.solves"], sum(
        by_caller[name] for name in KRYLOV_CALLERS))
    expect("krylov solves under solve_momentum == momentum sweeps",
           by_caller["lame.solve_momentum"], m["lame.solve_momentum_calls"])
    monolithic_steps = sum(
        1 for s in tr.spans if s.name == "lame.solve_linear_step" and s.tag == "monolithic")
    expect("krylov solves under solve_linear_step == monolithic steps",
           by_caller["lame.solve_linear_step"], monolithic_steps)
    return checks


def span_self_check(tr: Tracer) -> tuple[str, bool, str]:
    """Self times are never negative and add up to the root spans."""
    selfs = self_times(tr.spans)
    roots = sum(s.duration for s in tr.spans if s.parent is None)
    ok = min(selfs, default=0.0) >= -1e-9 and abs(sum(selfs) - roots) <= 1e-6 * max(roots, 1.0)
    return ("span self times add up", ok, f"{sum(selfs):.6f} vs {roots:.6f}")
