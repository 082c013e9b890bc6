"""Run configuration: one JSON document, fully validated before any compute.

The schema is nested blocks (geometry, physics, data, solver, output) with
every key optional and defaulted.  Each block is the JSON form of one
settings dataclass (GeometryConfig, FlowParams with its PressureLaw,
DataConfig, SolverConfig, OutputConfig), which holds the keys' defaults as
field defaults and every value check (ranges, finiteness, face and
profile names) in __post_init__.  This module does the JSON-facing rest:
unknown keys are hard errors with a nearest-known-key hint, so typos
cannot silently fall back to defaults; values must have their default's
JSON type; and the dataclass errors come back naming the dotted key.  The
merged document is kept for echoing, which makes a run reproducible from
its own output directory.
"""
from __future__ import annotations

import difflib
import json
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Mapping

from .grid import GeometryConfig
from .fields import NormKind
from .lame import INNER_TOL, MODES
from .material import DataConfig, FlowParams, PressureLaw


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop and linear-solver settings.

    mode picks how the linear step solves its coupled system; the outer
    loop stops when the update falls to outer_tol (after at least two
    steps) or after max_outer steps; p is the Sobolev exponent of the
    strong norms.  inner_tol is the one accuracy setting of a linear step
    in both modes: the split sweeps stop at a change below it, and every
    Krylov solve of the step stops at the relative residual
    lame.krylov_tol(inner_tol) = 10 inner_tol (a split sweep's earlier,
    once it has cut its warm-start residual tenfold), so inner_tol must
    be below 0.1; it must also be at least 1e-15, since a relative
    residual below 1e-14 is round-off, which BiCGStab meets as a
    breakdown rather than a converged solve.
    """

    mode: str = MODES[0]
    outer_tol: float = 1e-9
    max_outer: int = 50
    p: float = NormKind.p
    inner_tol: float = INNER_TOL

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("outer_tol", "inner_tol"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {val!r}")
        if self.inner_tol >= 0.1:
            raise ValueError(f"inner_tol must be below 0.1, got {self.inner_tol!r}")
        if self.inner_tol < 1e-15:
            raise ValueError(f"inner_tol must be at least 1e-15: below it the linear step's "
                             f"Krylov tolerance is round-off, got {self.inner_tol!r}")
        n = self.max_outer
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"max_outer must be an integer of at least 1, got {n!r}")
        if not (math.isfinite(self.p) and self.p >= 2.0):
            raise ValueError(f"p must be finite and at least 2, got {self.p!r}")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True, eq=False)
class RunConfig:
    geometry: GeometryConfig
    params: FlowParams
    data: DataConfig
    solver: SolverConfig
    output: OutputConfig
    document: dict  # fully defaulted copy of the input, for the echo


_BLOCKS = {
    "geometry": GeometryConfig,
    "physics": FlowParams,
    "data": DataConfig,
    "solver": SolverConfig,
    "output": OutputConfig,
}
_KEYS = {"friction": "f"}  # dataclass field -> JSON key, where the two differ


def _fail_unknown(path: str, known) -> None:
    hint = difflib.get_close_matches(path.rsplit(".", 1)[-1], sorted(known), n=1, cutoff=0.0)
    extra = f"; nearest known key is {hint[0]!r}" if hint else ""
    raise ConfigError(f"unknown config key {path!r}{extra}")


def _typed(value, default, path: str):
    """Check one given value against the JSON type of its default: a
    boolean is no number, integers stay integers where the default is one,
    a profile map is an object of strings.  The settings dataclass checks
    ranges, finiteness and names."""
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be a number, got {value!r}")
        return float(value)
    elif isinstance(default, tuple):
        if not (isinstance(value, Mapping) and all(isinstance(v, str) for v in value.values())):
            raise ConfigError(f"{path} must be an object of face name to profile name, "
                              f"got {value!r}")
        return dict(value)
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
    elif isinstance(default, str) and not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _block(raw, path: str, defaults) -> dict:
    """Merge one JSON block over the field defaults of a settings dataclass.

    A nested settings dataclass is a nested block; (face, profile) pairs
    are an object.  The result is the block as echoed.
    """
    keys = {_KEYS.get(f.name, f.name): getattr(defaults, f.name) for f in fields(defaults)}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config block {path!r} must be an object")
    for key in raw:
        if key not in keys:
            _fail_unknown(f"{path}.{key}", keys)
    out = {}
    for key, default in keys.items():
        if is_dataclass(default):
            out[key] = _block(raw.get(key, {}), f"{path}.{key}", default)
        elif key in raw:
            out[key] = _typed(raw[key], default, f"{path}.{key}")
        else:
            out[key] = dict(default) if isinstance(default, tuple) else default
    return out


def _settings(cls, path: str, block: Mapping):
    """Build a settings dataclass from its typed block.  An error whose
    first word is a field name, or a field name and a dotted tail such as
    slip.z1, comes back naming the dotted key; any other names the block."""
    fields_by_key = {key: name for name, key in _KEYS.items()}
    try:
        return cls(**{fields_by_key.get(key, key): value for key, value in block.items()})
    except ValueError as exc:
        head, _, rest = str(exc).partition(" ")
        name = head.split(".")[0]
        if name in {f.name for f in fields(cls)}:
            raise ConfigError(f"{path}.{_KEYS.get(name, name)}{head[len(name):]} {rest}") from exc
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_mapping(raw: Mapping) -> RunConfig:
    """Validate a parsed JSON document and fill in every default."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config document must be a JSON object")
    for key in raw:
        if key not in _BLOCKS:
            _fail_unknown(key, _BLOCKS)
    doc = {name: _block(raw.get(name, {}), name, cls()) for name, cls in _BLOCKS.items()}

    physics, data = doc["physics"], doc["data"]
    pressure = _settings(PressureLaw, "physics.pressure", physics["pressure"])
    return RunConfig(
        geometry=_settings(GeometryConfig, "geometry", doc["geometry"]),
        params=_settings(FlowParams, "physics", dict(physics, pressure=pressure)),
        data=_settings(DataConfig, "data", dict(
            data,
            normal_trace=tuple(sorted(data["normal_trace"].items())),
            slip=tuple(sorted(data["slip"].items())),
        )),
        solver=_settings(SolverConfig, "solver", doc["solver"]),
        output=_settings(OutputConfig, "output", doc["output"]),
        document=doc,
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
