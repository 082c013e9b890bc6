import inspect
from dataclasses import fields

import pytest

from slipflow.config import SolverConfig
from slipflow.grid import GeometryConfig
from slipflow.material import DataConfig, FlowParams, PressureLaw

# one rejected value per range check of each settings dataclass
BAD = {
    GeometryConfig: [
        {"length": 0.0}, {"width3": float("inf")}, {"n2": 8.0}, {"n1": 3},
    ],
    PressureLaw: [
        {"kind": "cubic"}, {"coefficient": float("nan")},
        {"kind": "power", "coefficient": 0.5}, {"kind": "linear", "coefficient": 0.0},
    ],
    FlowParams: [{"mu": 0.0}, {"nu": -1.0}, {"friction": -2.0}],
    DataConfig: [
        {"epsilon": -1e-3}, {"inflow_density": "gauss"}, {"slip": (("x0", "zero"),)},
        {"normal_trace": (("y0", "sine_bump"),)}, {"slip": (("z1", "gauss"),)},
        {"normal_trace": (("inflow", "sine_bump"), ("inflow", "zero"))},
        {"slip": ("y0", "sine_bump")},
    ],
    SolverConfig: [
        {"mode": "direct"}, {"outer_tol": 0.0}, {"inner_tol": -1.0}, {"max_outer": 0},
        {"p": 1.0}, {"inner_tol": 0.1}, {"max_outer": 2.5}, {"max_outer": True},
        {"outer_tol": float("inf")}, {"inner_tol": float("inf")}, {"p": float("inf")},
    ],
}


@pytest.mark.parametrize("cls", list(BAD), ids=lambda c: c.__name__)
def test_every_range_check_names_its_field(cls):
    # config errors name the dotted key by the field a message starts with,
    # alone or with a dotted tail such as slip.z1, so every check of a
    # settings dataclass must start with one
    assert len(BAD[cls]) >= inspect.getsource(cls.__post_init__).count("raise ValueError")
    names = {f.name for f in fields(cls)}
    for kwargs in BAD[cls]:
        with pytest.raises(ValueError) as exc:
            cls(**kwargs)
        head = str(exc.value).split(" ", 1)[0]
        assert head.split(".", 1)[0] in names, (kwargs, str(exc.value))

