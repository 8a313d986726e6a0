import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
from dataclasses import asdict
from pathlib import Path

import pytest

import ravu
from ravu.config import _RANGES, RavuConfig, check_range, load_config
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


# A value outside each ranged field's range.
OUT_OF_RANGE = {"embed_dim": 0, "top_k": 0, "budget": 0, "hier_per_event": 0, "max_retries": 0,
                "deadline_s": float("inf"), "fps": 0.0, "min_iou": 1.5}


@pytest.mark.parametrize("field", sorted(_RANGES))
@pytest.mark.parametrize("make", [
    lambda values: RavuConfig(**values),
    lambda values: dataclasses.replace(RavuConfig(), **values),
], ids=["made", "replaced"])
def test_a_config_made_in_code_is_range_checked(make, field):
    with pytest.raises(ParseError) as info:
        make({field: OUT_OF_RANGE[field]})
    assert info.value.field == field
    assert str(info.value).startswith(f"config field '{field}' must be ")


@pytest.mark.parametrize("field", sorted(_RANGES))
def test_check_range_words_a_value_as_a_config_does(field):
    """Functions that take a field's value as an argument refuse what the config refuses, in its words."""
    with pytest.raises(ParseError) as made:
        RavuConfig(**{field: OUT_OF_RANGE[field]})
    with pytest.raises(ValueError) as checked:
        check_range(field, OUT_OF_RANGE[field])
    assert str(checked.value) == str(made.value).replace(f"config field '{field}'", field)
    with pytest.raises(ValueError, match="^the value must be "):
        check_range(field, OUT_OF_RANGE[field], "the value")
    check_range(field, getattr(RavuConfig(), field))


@pytest.mark.parametrize("values, field", [
    ({"top_k": 2.5}, "top_k"),
    ({"budget": True}, "budget"),
    ({"max_retries": "3"}, "max_retries"),
    ({"fps": None}, "fps"),
    ({"endpoint": 5}, "endpoint"),
])
def test_a_config_made_in_code_is_type_checked(values, field):
    with pytest.raises(ParseError) as info:
        RavuConfig(**values)
    assert info.value.field == field
    assert str(info.value).startswith(f"config field '{field}' must be ")


def test_a_config_cannot_be_changed_in_place():
    cfg = RavuConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.budget = 3
    assert cfg.budget == 5


# ---------------------------------------------------------------------------
# One way to thread configuration: the config is taken whole or its values are passed.

SRC = Path(ravu.__file__).parent
# The names a config value goes by as a parameter: each field's, and the question path's aliases.
CONFIG_NAMES = {f.name for f in dataclasses.fields(RavuConfig)} | {"per_event", "top"}
# A backend's constructor takes ``embed_dim`` as ``dim`` and ``mock_seed`` as ``seed``. Elsewhere these
# names are no config value: ``synth_world``'s ``seed`` picks a world.
BACKEND_ALIASES = {"dim", "seed"}
# ``pipebench/workloads.py`` calls ``answer_question`` with ``budget=``, ``top_k=`` and ``per_event=`` and
# relies on the default ``max_retries``: its signature changes with the benchmark.
EXEMPT = {"ravu.evaluate.answer_question"}


def package_functions():
    """``(qualified name, function)`` of every function and method defined in a ``ravu`` module."""
    for info in pkgutil.iter_modules(ravu.__path__):
        module = importlib.import_module(f"ravu.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__ and obj is not RavuConfig:
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # a classmethod's or staticmethod's function
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def is_backend_constructor(qualname: str) -> bool:
    return qualname.startswith("ravu.backends.") and qualname.endswith("Backend.__init__")


def test_no_signature_restates_a_config_default():
    """No parameter named after a config value, or on a backend's constructor after its alias, has a
    default, outside ``EXEMPT``.

    The graph's own ``fps`` field (``SpatioTemporalGraph.__init__``) is a
    record of the graph, not a setting: ``deserialize`` and ``build_graph``
    always fill it.
    """
    found = [
        f"{qualname}({parameter.name}={parameter.default!r})"
        for qualname, function in package_functions()
        if qualname not in EXEMPT
        for parameter in inspect.signature(function).parameters.values()
        if (parameter.name in CONFIG_NAMES
            or (is_backend_constructor(qualname) and parameter.name in BACKEND_ALIASES))
        and parameter.default is not parameter.empty
        and (qualname, parameter.name) != ("ravu.graph_model.SpatioTemporalGraph.__init__", "fps")
    ]
    assert found == []


def test_the_scan_sees_the_functions_it_guards():
    names = dict(package_functions())
    assert {"ravu.ingestion.associate", "ravu.reasoning.hierarchical_retrieve",
            "ravu.backends.RemoteBackend.__init__", *EXEMPT} <= set(names)
    assert {name for name in names if is_backend_constructor(name)} == {
        "ravu.backends.MockBackend.__init__", "ravu.backends.RemoteBackend.__init__"}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RavuConfig)])
def test_every_config_field_is_read_outside_config(field):
    text = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "config.py")
    assert re.search(rf"\b(?:cfg|config)\.{field}\b", text), f"nothing reads config field {field!r}"
