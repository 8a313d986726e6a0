import json
from dataclasses import asdict

import pytest

from ravu.config import RavuConfig, load_config
from ravu.errors import ParseError


def write(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return path


def test_from_file_ignores_unknown_keys(tmp_path):
    path = write(tmp_path, json.dumps({"top_k": 7, "max_in_flight": 8, "no_such_key": 1}))
    assert RavuConfig.from_file(path) == RavuConfig(top_k=7)


def test_invalid_json_reports_line(tmp_path):
    path = write(tmp_path, '{\n  "top_k": 7,\n  oops\n}')
    with pytest.raises(ParseError) as info:
        RavuConfig.from_file(path)
    assert info.value.line == 3
    assert "line 3" in str(info.value)


def test_non_object_document_rejected(tmp_path):
    with pytest.raises(ParseError):
        RavuConfig.from_file(write(tmp_path, "[1, 2, 3]"))


def test_env_overrides_file_values(tmp_path, monkeypatch):
    path = write(
        tmp_path, json.dumps({"endpoint": "http://file", "token": "file", "embed_dim": 64})
    )
    monkeypatch.setenv("RAVU_ENDPOINT", "http://env")
    monkeypatch.setenv("RAVU_TOKEN", "env-token")
    monkeypatch.setenv("RAVU_EMBED_DIM", "32")
    cfg = load_config(path)
    assert (cfg.endpoint, cfg.token, cfg.embed_dim) == ("http://env", "env-token", 32)



@pytest.mark.parametrize(
    "values, field",
    [
        ({"top_k": "ten"}, "top_k"),
        ({"top_k": 2.5}, "top_k"),
        ({"budget": True}, "budget"),
        ({"min_iou": False}, "min_iou"),
        ({"fps": None}, "fps"),
        ({"endpoint": 5}, "endpoint"),
    ],
)
def test_wrong_value_type_names_the_field(tmp_path, values, field):
    with pytest.raises(ParseError) as info:
        RavuConfig.from_file(write(tmp_path, json.dumps(values)))
    assert info.value.field == field
    assert f"config field '{field}'" in str(info.value)


@pytest.mark.parametrize(
    "values, field",
    [
        ({"fps": 0}, "fps"),
        ({"fps": float("nan")}, "fps"),
        ({"deadline_s": 0}, "deadline_s"),
        ({"deadline_s": float("inf")}, "deadline_s"),
        ({"embed_dim": -3}, "embed_dim"),
        ({"top_k": 0}, "top_k"),
        ({"budget": 0}, "budget"),
        ({"hier_per_event": -1}, "hier_per_event"),
        ({"max_retries": 0}, "max_retries"),
        ({"min_iou": -0.1}, "min_iou"),
        ({"min_iou": 1.01}, "min_iou"),
    ],
)
def test_out_of_range_value_names_the_field(tmp_path, values, field):
    with pytest.raises(ParseError) as info:
        RavuConfig.from_file(write(tmp_path, json.dumps(values)))
    assert info.value.field == field
    assert f"config field '{field}' must be" in str(info.value)


def test_every_default_value_loads_back(tmp_path):
    assert RavuConfig.from_file(write(tmp_path, json.dumps(asdict(RavuConfig())))) == RavuConfig()


def test_int_is_accepted_for_a_float_field(tmp_path):
    cfg = RavuConfig.from_file(write(tmp_path, json.dumps({"fps": 2, "deadline_s": 30.5})))
    assert (cfg.fps, cfg.deadline_s) == (2, 30.5)


def test_range_edges_load(tmp_path):
    edges = {"embed_dim": 1, "top_k": 1, "budget": 1, "hier_per_event": 1, "max_retries": 1,
             "min_iou": 0, "fps": 0.5, "deadline_s": 0.01, "mock_seed": -4}
    assert RavuConfig.from_file(write(tmp_path, json.dumps(edges))) == RavuConfig(**edges)
    assert RavuConfig.from_file(write(tmp_path, '{"min_iou": 1}')).min_iou == 1


def test_bad_env_value_names_the_variable(monkeypatch):
    monkeypatch.delenv("RAVU_CONFIG", raising=False)
    monkeypatch.setenv("RAVU_EMBED_DIM", "abc")
    with pytest.raises(ParseError) as info:
        load_config()
    assert info.value.field == "RAVU_EMBED_DIM"
    assert "RAVU_EMBED_DIM" in str(info.value)


def test_out_of_range_env_value_names_the_variable(monkeypatch):
    monkeypatch.delenv("RAVU_CONFIG", raising=False)
    monkeypatch.setenv("RAVU_EMBED_DIM", "-3")
    with pytest.raises(ParseError) as info:
        load_config()
    assert info.value.field == "RAVU_EMBED_DIM"
    assert "RAVU_EMBED_DIM must be >= 1" in str(info.value)
