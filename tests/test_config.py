import json

import pytest

from slipflow.config import (
    ConfigError,
    config_from_mapping,
    parse_config,
)


def test_empty_document_gives_documented_defaults():
    cfg = config_from_mapping({})
    assert cfg.params.mu == 1.0
    assert cfg.params.nu == 1.0
    assert cfg.params.friction == 10.0
    assert cfg.params.pressure.kind == "power"
    assert cfg.params.pressure.coefficient == 2.0
    assert cfg.params.pressure.gamma == 2.0
    assert cfg.data.epsilon == 1e-2
    assert cfg.solver.p == 4.0
    assert cfg.solver.mode == "split"
    assert cfg.geometry.extents == (2.0, 1.0, 1.0)
    assert cfg.geometry.cells == (16, 8, 8)


def test_document_echo_is_complete_and_reparses_identically():
    cfg = config_from_mapping({"physics": {"mu": 3.0}})
    doc = cfg.document
    # the echo carries every block fully defaulted
    assert set(doc) == {"geometry", "physics", "data", "solver", "output"}
    assert doc["physics"]["mu"] == 3.0
    assert doc["physics"]["nu"] == 1.0
    assert doc["solver"]["max_outer"] == 50
    assert doc["data"]["slip"]["y1"] == "sine_bump"
    again = config_from_mapping(doc)
    assert again.document == doc
    # the echo is JSON-serializable as written
    json.dumps(doc)


def test_negative_viscosity_names_the_dotted_key():
    with pytest.raises(ConfigError, match="physics.mu"):
        config_from_mapping({"physics": {"mu": -1.0}})


def test_unknown_key_suggests_nearest_known():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({"physics": {"viscocity": 2.0}})
    with pytest.raises(ConfigError, match="'length'"):
        config_from_mapping({"geometry": {"lenght": 3.0}})
    with pytest.raises(ConfigError, match="nearest known key"):
        config_from_mapping({"solvers": {}})


def test_validation_errors_name_dotted_keys():
    bad = [
        ({"geometry": {"length": 0.0}}, "geometry.length"),
        ({"geometry": {"n1": 2}}, "geometry.n1"),
        ({"geometry": {"n1": 8.5}}, "geometry.n1"),
        ({"physics": {"f": 0.0}}, "physics.f"),
        ({"physics": {"pressure": {"kind": "cubic"}}}, "physics.pressure.kind"),
        ({"data": {"epsilon": -1e-3}}, "data.epsilon"),
        ({"data": {"inflow_density": "gauss"}}, "data.inflow_density"),
        ({"data": {"normal_trace": {"outflow": "gauss"}}}, "data.normal_trace.outflow"),
        ({"data": {"slip": {"z1": "gauss"}}}, "data.slip.z1"),
        ({"solver": {"mode": "fast"}}, "solver.mode"),
        ({"solver": {"max_outer": 0}}, "solver.max_outer"),
        ({"solver": {"outer_tol": 0.0}}, "solver.outer_tol"),
        ({"solver": {"inner_tol": 0.1}}, "solver.inner_tol"),
        ({"solver": {"inner_tol": 1e-16}}, "solver.inner_tol"),
        ({"solver": {"p": 1.5}}, "solver.p"),
    ]
    for raw, key in bad:
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            config_from_mapping(raw)


def test_profile_maps_reject_unknown_faces():
    with pytest.raises(ConfigError, match="inflow"):
        config_from_mapping({"data": {"normal_trace": {"inflo": "sine_bump"}}})
    # walls only take slip rows; the normal trace lives on inflow/outflow
    with pytest.raises(ConfigError, match="normal_trace"):
        config_from_mapping({"data": {"normal_trace": {"y0": "sine_bump"}}})


FLOAT_KEYS = [
    "geometry.length", "geometry.width2", "geometry.width3", "physics.mu", "physics.nu",
    "physics.f", "physics.pressure.coefficient", "data.epsilon", "solver.outer_tol",
    "solver.inner_tol", "solver.p",
]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["Infinity", "NaN"])
def test_non_finite_numbers_name_the_dotted_key(key, value):
    # JSON text may carry Infinity and NaN; the settings dataclass of each
    # float key rejects them, and the error names the key
    text = value
    for part in reversed(key.split(".")):
        text = f'{{"{part}": {text}}}'
    with pytest.raises(ConfigError, match=key.replace(".", r"\.") + " "):
        config_from_mapping(json.loads(text))


def test_profile_maps_are_objects_of_strings():
    with pytest.raises(ConfigError, match=r"data\.slip must be an object"):
        config_from_mapping({"data": {"slip": ["y0", "sine_bump"]}})
    with pytest.raises(ConfigError, match=r"data\.normal_trace must be an object"):
        config_from_mapping({"data": {"normal_trace": {"inflow": 1}}})


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError, match="physics.mu"):
        config_from_mapping({"physics": {"mu": True}})
    with pytest.raises(ConfigError, match="solver.max_outer"):
        config_from_mapping({"solver": {"max_outer": False}})


def test_values_and_blocks_of_the_wrong_json_type():
    with pytest.raises(ConfigError, match=r"^solver\.mode must be a string, got 3$"):
        config_from_mapping({"solver": {"mode": 3}})
    with pytest.raises(ConfigError, match=r"^config block 'geometry' must be an object$"):
        config_from_mapping({"geometry": 5})


@pytest.mark.parametrize("key", ["krylov_rel_tol", "krylov_max_iter"])
def test_removed_krylov_keys_are_unknown(key):
    # inner_tol sets the Krylov tolerance; the removed keys fail like any
    # unknown key
    with pytest.raises(ConfigError, match=f"unknown config key 'solver.{key}'"):
        config_from_mapping({"solver": {key: 1}})


def test_nonsense_physics_combination_is_rejected():
    # mu + 2 nu must stay positive for the volume-viscosity term
    with pytest.raises(ConfigError, match="physics"):
        config_from_mapping({"physics": {"nu": -0.6}})


def test_parse_config_reads_json_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"data": {"epsilon": 0.0}, "geometry": {"n1": 8}}))
    cfg = parse_config(path)
    assert cfg.data.epsilon == 0.0
    assert cfg.geometry.n1 == 8


def test_parse_config_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "physics": {\n    "mu": 1.0,,\n  }\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(tmp_path / "absent.json")


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config(path)
