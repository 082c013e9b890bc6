"""Run configuration: one JSON document, fully validated before any compute.

The schema is nested blocks (geometry, physics, data, solver, output) with
every key optional and defaulted.  Unknown keys are hard errors with a
nearest-known-key hint, so typos cannot silently fall back to defaults.
The fully defaulted document is kept on the parsed config for echoing,
which makes a run reproducible from its own output directory.
"""
from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .grid import FACE_NAMES, MIN_CELLS, WALL_NAMES, GeometryConfig
from .krylov import KrylovConfig
from .lame import MODES
from .material import NORMAL_TRACE_FACES, PROFILE_NAMES, FlowParams, PressureLaw


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


_GEOMETRY_DEFAULTS: dict[str, Any] = {
    "length": 2.0,
    "width2": 1.0,
    "width3": 1.0,
    "n1": 16,
    "n2": 8,
    "n3": 8,
}
_PRESSURE_DEFAULTS: dict[str, Any] = {"kind": "power", "coefficient": 2.0}
_PHYSICS_DEFAULTS: dict[str, Any] = {"mu": 1.0, "nu": 1.0, "f": 10.0}
_DATA_DEFAULTS: dict[str, Any] = {
    "epsilon": 1e-2,
    "inflow_density": "sine_bump",
    "normal_trace": {"inflow": "sine_bump"},
    "slip": {name: "sine_bump" for name in WALL_NAMES},
}
_SOLVER_DEFAULTS: dict[str, Any] = {
    "mode": "split",
    "outer_tol": 1e-9,
    "max_outer": 50,
    "omega": 1.0,
    "p": 4.0,
    "inner_tol": 1e-11,
    "krylov_rel_tol": 1e-10,
    "krylov_max_iter": None,
    "seed": 0,
}
_OUTPUT_DEFAULTS: dict[str, Any] = {"directory": "out", "dump_fields": True}

_BLOCKS = ("geometry", "physics", "data", "solver", "output")


@dataclass(frozen=True)
class DataConfig:
    epsilon: float
    inflow_density: str
    normal_trace: tuple[tuple[str, str], ...]
    slip: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SolverConfig:
    mode: str
    outer_tol: float
    max_outer: int
    omega: float
    p: float
    inner_tol: float
    krylov_rel_tol: float
    krylov_max_iter: int | None
    seed: int

    def krylov(self) -> KrylovConfig:
        return KrylovConfig(rel_tol=self.krylov_rel_tol, max_iter=self.krylov_max_iter)


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    dump_fields: bool


@dataclass(frozen=True, eq=False)
class RunConfig:
    geometry: GeometryConfig
    params: FlowParams
    data: DataConfig
    solver: SolverConfig
    output: OutputConfig
    document: dict  # fully defaulted copy of the input, for the echo


def _fail_unknown(path: str, known) -> None:
    hint = difflib.get_close_matches(path.rsplit(".", 1)[-1], sorted(known), n=1, cutoff=0.0)
    extra = f"; nearest known key is {hint[0]!r}" if hint else ""
    raise ConfigError(f"unknown config key {path!r}{extra}")


def _check_keys(block: Mapping, known, path: str) -> None:
    if not isinstance(block, Mapping):
        raise ConfigError(f"config block {path!r} must be an object")
    for key in block:
        if key not in known:
            _fail_unknown(f"{path}.{key}", known)


def _merged(block: Mapping, defaults: Mapping, path: str) -> dict:
    _check_keys(block, defaults.keys(), path)
    out = dict(defaults)
    out.update(block)
    return out


def _number(value, path: str, *, positive=False, nonneg=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    val = float(value)
    if val != val or val in (float("inf"), float("-inf")):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    if positive and val <= 0.0:
        raise ConfigError(f"{path} must be positive, got {value!r}")
    if nonneg and val < 0.0:
        raise ConfigError(f"{path} must be nonnegative, got {value!r}")
    return val


def _integer(value, path: str, *, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be at least {minimum}, got {value!r}")
    return value


def _string(value, path: str, allowed=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    if allowed is not None and value not in allowed:
        raise ConfigError(f"{path} must be one of {sorted(allowed)}, got {value!r}")
    return value


def _profile_map(block, path: str, allowed_faces) -> dict[str, str]:
    if not isinstance(block, Mapping):
        raise ConfigError(f"{path} must be an object of face name to profile name")
    out = {}
    for face, profile in block.items():
        if face not in allowed_faces:
            _fail_unknown(f"{path}.{face}", allowed_faces)
        out[face] = _string(profile, f"{path}.{face}", allowed=PROFILE_NAMES)
    return out


def config_from_mapping(raw: Mapping) -> RunConfig:
    """Validate a parsed JSON document and fill in every default."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config document must be a JSON object")
    for key in raw:
        if key not in _BLOCKS:
            _fail_unknown(key, _BLOCKS)

    geo = _merged(raw.get("geometry", {}), _GEOMETRY_DEFAULTS, "geometry")
    length = _number(geo["length"], "geometry.length", positive=True)
    width2 = _number(geo["width2"], "geometry.width2", positive=True)
    width3 = _number(geo["width3"], "geometry.width3", positive=True)
    n1 = _integer(geo["n1"], "geometry.n1", minimum=MIN_CELLS)
    n2 = _integer(geo["n2"], "geometry.n2", minimum=MIN_CELLS)
    n3 = _integer(geo["n3"], "geometry.n3", minimum=MIN_CELLS)
    geometry = GeometryConfig(length, width2, width3, n1, n2, n3)

    phys_block = raw.get("physics", {})
    _check_keys(phys_block, set(_PHYSICS_DEFAULTS) | {"pressure"}, "physics")
    phys = dict(_PHYSICS_DEFAULTS)
    phys.update({k: v for k, v in phys_block.items() if k != "pressure"})
    pres = _merged(phys_block.get("pressure", {}), _PRESSURE_DEFAULTS, "physics.pressure")
    mu = _number(phys["mu"], "physics.mu", positive=True)
    nu = _number(phys["nu"], "physics.nu")
    friction = _number(phys["f"], "physics.f", positive=True)
    kind = _string(pres["kind"], "physics.pressure.kind", allowed=("power", "linear"))
    coefficient = _number(pres["coefficient"], "physics.pressure.coefficient")
    try:
        params = FlowParams(
            mu=mu, nu=nu, friction=friction,
            pressure=PressureLaw(kind=kind, coefficient=coefficient),
        )
    except ValueError as exc:
        raise ConfigError(f"physics: {exc}") from exc

    data = _merged(raw.get("data", {}), _DATA_DEFAULTS, "data")
    epsilon = _number(data["epsilon"], "data.epsilon", nonneg=True)
    inflow_density = _string(data["inflow_density"], "data.inflow_density", allowed=PROFILE_NAMES)
    normal_trace = _profile_map(data["normal_trace"], "data.normal_trace", NORMAL_TRACE_FACES)
    slip = _profile_map(data["slip"], "data.slip", FACE_NAMES)
    data_cfg = DataConfig(
        epsilon=epsilon,
        inflow_density=inflow_density,
        normal_trace=tuple(sorted(normal_trace.items())),
        slip=tuple(sorted(slip.items())),
    )

    sol = _merged(raw.get("solver", {}), _SOLVER_DEFAULTS, "solver")
    mode = _string(sol["mode"], "solver.mode", allowed=MODES)
    outer_tol = _number(sol["outer_tol"], "solver.outer_tol", positive=True)
    max_outer = _integer(sol["max_outer"], "solver.max_outer", minimum=1)
    omega = _number(sol["omega"], "solver.omega", positive=True)
    if omega > 1.0:
        raise ConfigError(f"solver.omega must lie in (0, 1], got {omega!r}")
    p = _number(sol["p"], "solver.p", positive=True)
    if p < 2.0:
        raise ConfigError(f"solver.p must be at least 2, got {p!r}")
    inner_tol = _number(sol["inner_tol"], "solver.inner_tol", positive=True)
    krylov_rel_tol = _number(sol["krylov_rel_tol"], "solver.krylov_rel_tol", positive=True)
    if krylov_rel_tol >= 1.0:
        raise ConfigError("solver.krylov_rel_tol must be below 1")
    krylov_max_iter = sol["krylov_max_iter"]
    if krylov_max_iter is not None:
        krylov_max_iter = _integer(krylov_max_iter, "solver.krylov_max_iter", minimum=1)
    seed = _integer(sol["seed"], "solver.seed", minimum=0)
    solver_cfg = SolverConfig(
        mode=mode, outer_tol=outer_tol, max_outer=max_outer, omega=omega, p=p,
        inner_tol=inner_tol, krylov_rel_tol=krylov_rel_tol,
        krylov_max_iter=krylov_max_iter, seed=seed,
    )

    out = _merged(raw.get("output", {}), _OUTPUT_DEFAULTS, "output")
    directory = _string(out["directory"], "output.directory")
    dump_fields = out["dump_fields"]
    if not isinstance(dump_fields, bool):
        raise ConfigError(f"output.dump_fields must be true or false, got {dump_fields!r}")
    output_cfg = OutputConfig(directory=directory, dump_fields=dump_fields)

    document = {
        "geometry": {"length": length, "width2": width2, "width3": width3,
                     "n1": n1, "n2": n2, "n3": n3},
        "physics": {"mu": mu, "nu": nu, "f": friction,
                    "pressure": {"kind": kind, "coefficient": coefficient}},
        "data": {"epsilon": epsilon, "inflow_density": inflow_density,
                 "normal_trace": dict(data_cfg.normal_trace),
                 "slip": dict(data_cfg.slip)},
        "solver": {"mode": mode, "outer_tol": outer_tol, "max_outer": max_outer,
                   "omega": omega, "p": p, "inner_tol": inner_tol,
                   "krylov_rel_tol": krylov_rel_tol,
                   "krylov_max_iter": krylov_max_iter, "seed": seed},
        "output": {"directory": directory, "dump_fields": dump_fields},
    }
    return RunConfig(
        geometry=geometry, params=params, data=data_cfg,
        solver=solver_cfg, output=output_cfg, document=document,
    )


def parse_config(path) -> RunConfig:
    """Load and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_mapping(raw)
