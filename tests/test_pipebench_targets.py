"""The benchmark calls the program by name; every name it calls must exist.

``pipebench/tracing.py`` lists every (owner, attribute) it replaces while
tracing, and ``pipebench/workloads.py`` persists, reloads and checks each
build through ``pipebench/checks.py``. A rename or deletion in ``src/``
would otherwise only show when the benchmark runs.
"""

import importlib.util
from pathlib import Path

from ravu import accel, evaluate
from ravu.backends import MockBackend
from ravu.config import RavuConfig
from ravu.evaluate import build_video
from ravu.graph_builder import read_embeddings, write_embeddings
from ravu.graph_model import deserialize, serialize
from ravu.index import EmbeddingIndex
from ravu.synth import synth_world

from conftest import mock_backend

PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"pipebench_{name}", PIPEBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    targets = load("tracing").layer_targets(MockBackend)
    assert targets
    missing = []
    for owner, attr, name, _ in targets:
        # The tracer reads class attributes from the class's own namespace.
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({name})")
    assert missing == []


def test_the_untraced_persist_reload_and_checks_run(tmp_path):
    """What ``pipebench/workloads.py`` does with a build, checked as ``pipebench/checks.py`` checks it."""
    checks = load("checks")
    world = synth_world(1, 24, 3)
    built = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig())
    graph_text = serialize(built.graph)
    bin_path, rows_path = tmp_path / "e.bin", tmp_path / "e.index.jsonl"
    write_embeddings(built.index.records, bin_path, rows_path)
    graph = deserialize(graph_text)
    reloaded = EmbeddingIndex(read_embeddings(bin_path, rows_path, graph))
    assert checks.roundtrip_problems(graph_text, graph, built.index.records, reloaded.records) == []
    query = mock_backend().embed(built.index.descriptions[0])
    assert checks.top_k_problems(reloaded, query, 5) == []
    assert accel.USE_NUMBA is False


def test_the_program_takes_the_calls_the_workloads_make():
    """Each call into the program as ``pipebench/workloads.py`` spells it: the config positional to
    ``build_video``, the retrieval values as keywords to ``answer_question``, and no config to ``eval_qa``."""
    cfg = RavuConfig()
    backend = MockBackend(cfg.mock_seed, cfg.embed_dim)
    world = synth_world(1, 24, 3)
    assets = {world.video_id: evaluate.build_video(world.observations_text, world.tracklets_text, backend, cfg)}
    item = world.questions[0]
    audit = evaluate.answer_question(
        assets[item.video_id], item, backend, budget=cfg.budget, top_k=cfg.top_k, per_event=cfg.hier_per_event,
    )
    assert 0 < len(audit.frames) <= cfg.budget
    ann = world.loc_annotations[0]
    loc = assets[ann.video_id].index.localize(ann.question, cfg.top_k, backend)
    assert loc.candidate.frame_index in ann.gt_frames
    report = evaluate.eval_qa(world.questions, assets, MockBackend(cfg.mock_seed, cfg.embed_dim))
    assert report["errored"] == 0 and report["overall"]["items"] == len(world.questions)
