import inspect
from dataclasses import fields

import pytest

from slipflow.config import DataConfig, SolverConfig
from slipflow.grid import GeometryConfig
from slipflow.krylov import KrylovConfig
from slipflow.material import FlowParams, PressureLaw

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
    DataConfig: [{"epsilon": -1e-3}],
    SolverConfig: [
        {"mode": "direct"}, {"outer_tol": 0.0}, {"inner_tol": -1.0}, {"max_outer": 0},
        {"omega": 1.5}, {"p": 1.0}, {"krylov_rel_tol": 1.0},
        {"krylov_max_iter": 0},
    ],
    KrylovConfig: [{"rel_tol": 0.0}, {"max_iter": -5}],
}


@pytest.mark.parametrize("cls", list(BAD), ids=lambda c: c.__name__)
def test_every_range_check_names_its_field(cls):
    # config errors name the dotted key by the field a message starts with,
    # so every check of a settings dataclass must start with one
    assert len(BAD[cls]) >= inspect.getsource(cls.__post_init__).count("raise ValueError")
    names = {f.name for f in fields(cls)}
    for kwargs in BAD[cls]:
        with pytest.raises(ValueError) as exc:
            cls(**kwargs)
        assert str(exc.value).split(" ", 1)[0] in names, (kwargs, str(exc.value))

