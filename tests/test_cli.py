import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from ravu import cli, graph_model
from ravu.cli import main
from ravu.config import RavuConfig
from ravu.errors import read_document
from ravu.evaluate import build_video
from ravu.index import EmbeddingIndex

from conftest import new_state, rows, table


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    runner = CliRunner()
    result = runner.invoke(
        main, ["synth", "--seed", "3", "--videos", "2", "--out", str(root)]
    )
    assert result.exit_code == 0, result.output
    return root


def video_dir(corpus_dir):
    return sorted(p for p in corpus_dir.iterdir() if p.is_dir())[0]


def test_synth_layout(corpus_dir):
    assert (corpus_dir / "questions.jsonl").exists()
    assert (corpus_dir / "localization.jsonl").exists()
    vd = video_dir(corpus_dir)
    assert (vd / "observations.jsonl").exists()
    assert (vd / "tracklets.json").exists()


@pytest.fixture(scope="module")
def built(corpus_dir, tmp_path_factory):
    """(graph, embeddings) paths of the first video, built and embedded by the CLI."""
    runner = CliRunner()
    vd = video_dir(corpus_dir)
    out = tmp_path_factory.mktemp("built")
    graph, emb = out / "graph.json", out / "embeddings.bin"
    result = runner.invoke(
        main, ["build", "--observations", str(vd / "observations.jsonl"),
               "--tracklets", str(vd / "tracklets.json"), "--out", str(graph)]
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["embed", "--graph", str(graph), "--out", str(emb)])
    assert result.exit_code == 0, result.output
    assert emb.exists() and (out / "embeddings.bin.index.jsonl").exists()
    return graph, emb


def test_build_embeds_nothing_and_writes_the_graph_it_wrote_before(corpus_dir, tmp_path, monkeypatch):
    class EmbedCounting:
        def __init__(self, inner):
            self.inner, self.embeds = inner, 0

        def generate(self, bundle):
            return self.inner.generate(bundle)

        def embed(self, text):
            self.embeds += 1
            return self.inner.embed(text)

    counting = EmbedCounting(cli.make_backend(RavuConfig()))
    monkeypatch.setattr(cli, "make_backend", lambda cfg: counting)
    vd = video_dir(corpus_dir)
    obs, tracks = vd / "observations.jsonl", vd / "tracklets.json"
    graph = tmp_path / "graph.json"
    result = CliRunner().invoke(
        main, ["build", "--observations", str(obs), "--tracklets", str(tracks), "--out", str(graph)]
    )
    assert result.exit_code == 0, result.output
    assert counting.embeds == 0
    written = graph.read_text()
    built = build_video(read_document(obs), read_document(tracks), counting.inner, RavuConfig())
    assert written == graph_model.serialize(built.graph)
    # The sha256 of this video's graph as written by a build that embedded it as well.
    assert hashlib.sha256(written.encode()).hexdigest() == (
        "b83aee29d121a64f1588bfc87b93e3bd3fea8ef0970e0daa0e961871f666295e"
    )


def test_ingest_build_embed_events_ask(corpus_dir, built, tmp_path):
    runner = CliRunner()
    vd = video_dir(corpus_dir)
    obs, tracks = str(vd / "observations.jsonl"), str(vd / "tracklets.json")
    graph, emb = built

    partial = tmp_path / "partial.json"
    result = runner.invoke(
        main, ["ingest", "--observations", obs, "--tracklets", tracks, "--out", str(partial)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(partial.read_text())["frames"]["frame_index"]

    result = runner.invoke(main, ["events", "--graph", str(graph)])
    assert result.exit_code == 0, result.output
    assert "entity 0:" in result.output

    item = json.loads((corpus_dir / "questions.jsonl").read_text().splitlines()[0])
    args = [
        "ask", "--graph", str(graph), "--embeddings", str(emb),
        "--question", item["question"], "--category", item["category"],
    ]
    for opt in item["options"]:
        args += ["--option", opt]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert out["choice"] == item["answer_index"]
    assert len(out["frames"]) <= 5

    # Retrieval-only mode (no options)
    result = runner.invoke(
        main, ["ask", "--graph", str(graph), "--embeddings", str(emb),
               "--question", item["question"]]
    )
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert out["frames"] and "plan" in out


def test_ingest_writes_the_built_nodes_with_no_edges_or_events(corpus_dir, built, tmp_path):
    vd = video_dir(corpus_dir)
    ingested_doc = ingested(tmp_path, vd / "observations.jsonl", vd / "tracklets.json")
    built_doc = json.loads(built[0].read_text())
    n, m = (len(doc["nodes"]["entity_id"]) for doc in (built_doc, ingested_doc))
    assert n == m and not ingested_doc["edges"]["frame_index"] and not ingested_doc["events"], (n, m)


def test_events_prints_one_line_per_event(built):
    result = CliRunner().invoke(main, ["events", "--graph", str(built[0])])
    assert result.exit_code == 0, result.output
    n = sum(len(evs["start_frame"]) for evs in json.loads(built[0].read_text())["events"].values())
    lines = result.output.splitlines()
    assert n and len(lines) == n, (n, len(lines))


def test_the_graph_document_is_compact_sorted_key_json_of_format_2(built):
    """Format 2: a column per field, each node state and relation once."""
    text = built[0].read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    assert json.loads(text)["format"] == 2


def test_the_graph_document_holds_no_nan_or_infinity(built):
    """json loads it with every such token refused."""
    json.loads(built[0].read_text(), parse_constant=lambda token: 1 / 0)


def test_ask_routes_global_by_category_with_or_without_options(corpus_dir, built):
    graph, emb = built
    item = next(
        q for q in map(json.loads, (corpus_dir / "questions.jsonl").read_text().splitlines())
        if q["category"] == "global" and q["video_id"] == video_dir(corpus_dir).name
    )
    args = ["ask", "--graph", str(graph), "--embeddings", str(emb),
            "--question", item["question"], "--category", "global"]
    runner = CliRunner()
    bare = runner.invoke(main, args)
    assert bare.exit_code == 0, bare.output
    with_options = runner.invoke(
        main, args + ["--option", item["options"][0], "--option", item["options"][1]]
    )
    assert with_options.exit_code == 0, with_options.output
    bare, with_options = json.loads(bare.output), json.loads(with_options.output)

    assert bare["frames"] and bare["frames"] == with_options["frames"]
    assert bare["plan"] is None and with_options["plan"] is None
    assert set(bare) == {"frames", "plan", "notes", "flags"}
    assert set(with_options) == set(bare) | {"choice", "answer"}


def test_eval_qa_and_loc(corpus_dir, tmp_path):
    runner = CliRunner()
    report_path = tmp_path / "qa.json"
    result = runner.invoke(
        main,
        ["eval", "qa", "--corpus", str(corpus_dir),
         "--dataset", str(corpus_dir / "questions.jsonl"), "--out", str(report_path)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["overall"]["non_blocked_accuracy"] == 1.0

    result = runner.invoke(
        main,
        ["eval", "loc", "--corpus", str(corpus_dir),
         "--dataset", str(corpus_dir / "localization.jsonl"),
         "--method", "rerank", "--fmt", "csv"],
    )
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == "category,metric,value"


def test_config_file_respected(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"backend": "unknown-kind"}))
    runner = CliRunner()
    result = runner.invoke(
        main, ["--config", str(cfg), "synth", "--seed", "1", "--videos", "1",
               "--out", str(tmp_path / "c")]
    )
    # synth does not need a backend, so it still succeeds
    assert result.exit_code == 0, result.output

    result = runner.invoke(
        main, ["--config", str(cfg), "events", "--graph", str(tmp_path / "missing.json")]
    )
    assert result.exit_code != 0


def test_ingest_error_is_clean(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n")
    tracks = tmp_path / "tracks.json"
    tracks.write_text('{"tracks": []}')
    runner = CliRunner()
    result = runner.invoke(
        main, ["ingest", "--observations", str(bad), "--tracklets", str(tracks),
               "--out", str(tmp_path / "g.json")]
    )
    assert result.exit_code != 0
    assert "invalid JSON" in result.output


@pytest.fixture()
def bad_inputs(built, tmp_path):
    """(graph without ``nodes``, embeddings cut to 20 bytes next to a copy of its index)."""
    graph, emb = built
    doc = json.loads(graph.read_text())
    del doc["nodes"]
    bad_graph = tmp_path / "graph.json"
    bad_graph.write_text(json.dumps(doc))
    cut = tmp_path / "embeddings.bin"
    cut.write_bytes(emb.read_bytes()[:20])
    (tmp_path / "embeddings.bin.index.jsonl").write_text(
        (emb.parent / "embeddings.bin.index.jsonl").read_text()
    )
    return bad_graph, cut


def assert_clean_error(result, message):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith("Error: ") and message in result.output


def test_events_on_bad_graph_is_clean(bad_inputs):
    bad_graph, _ = bad_inputs
    result = CliRunner().invoke(main, ["events", "--graph", str(bad_graph)])
    assert_clean_error(result, "missing key 'nodes'")


def test_embed_on_bad_graph_is_clean(bad_inputs, tmp_path):
    bad_graph, _ = bad_inputs
    result = CliRunner().invoke(
        main, ["embed", "--graph", str(bad_graph), "--out", str(tmp_path / "out.bin")]
    )
    assert_clean_error(result, "missing key 'nodes'")
    assert not (tmp_path / "out.bin").exists()


def test_ask_on_bad_embeddings_is_clean(built, bad_inputs):
    graph, _ = built
    _, cut = bad_inputs
    result = CliRunner().invoke(
        main, ["ask", "--graph", str(graph), "--embeddings", str(cut), "--question", "Who runs?"]
    )
    assert_clean_error(result, "bytes, expected")


def graph_listing_a_node_twice(graph, tmp_path):
    """A copy of ``graph`` with its first node listed again under another description, and that node."""
    doc = json.loads(graph.read_text())
    nodes = rows(doc["nodes"])
    first = nodes[0]
    doc["nodes"] = table([*nodes, new_state(doc, first, "a purple elephant juggling")], doc["nodes"])
    doubled = tmp_path / "graph.json"
    doubled.write_text(json.dumps(doc))
    return doubled, first


def test_ask_on_a_graph_that_lists_a_node_twice_is_clean(built, tmp_path):
    graph, emb = built
    doubled, first = graph_listing_a_node_twice(graph, tmp_path)
    result = CliRunner().invoke(
        main, ["ask", "--graph", str(doubled), "--embeddings", str(emb), "--question", "Who runs?"]
    )
    assert_clean_error(
        result, f"graph lists node entity {first['entity_id']} frame {first['frame_index']} twice"
    )


@pytest.mark.parametrize("command", ["embed", "events"])
def test_embed_and_events_on_a_graph_that_lists_a_node_twice_are_clean(built, tmp_path, command):
    graph, _ = built
    doubled, first = graph_listing_a_node_twice(graph, tmp_path)
    out = tmp_path / "out.bin"
    args = [command, "--graph", str(doubled)] + (["--out", str(out)] if command == "embed" else [])
    result = CliRunner().invoke(main, args)
    assert_clean_error(
        result, f"graph lists node entity {first['entity_id']} frame {first['frame_index']} twice"
    )
    assert not out.exists()


def test_a_graph_with_its_nodes_reversed_gives_the_same_events_and_embeddings(built, tmp_path):
    graph, _ = built
    doc = json.loads(graph.read_text())
    doc["nodes"] = table(rows(doc["nodes"])[::-1], doc["nodes"])
    reversed_graph = tmp_path / "reversed.json"
    reversed_graph.write_text(json.dumps(doc))
    outputs = []
    for path, out in ((graph, tmp_path / "a.bin"), (reversed_graph, tmp_path / "b.bin")):
        events = CliRunner().invoke(main, ["events", "--graph", str(path)])
        embed = CliRunner().invoke(main, ["embed", "--graph", str(path), "--out", str(out)])
        assert events.exit_code == embed.exit_code == 0, events.output + embed.output
        index = out.parent / f"{out.name}.index.jsonl"
        outputs.append((events.output, out.read_bytes(), index.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["embed", "events"])
def test_a_graph_with_a_node_past_the_last_frame_is_clean(built, tmp_path, command):
    graph, _ = built
    doc = json.loads(graph.read_text())
    node = rows(doc["nodes"])[-1]
    last = len(doc["frames"]["frame_index"]) - 1
    doc["nodes"]["frame_index"][-1] = last + 1
    moved = tmp_path / "graph.json"
    moved.write_text(json.dumps(doc))
    out = tmp_path / "out.bin"
    args = [command, "--graph", str(moved)] + (["--out", str(out)] if command == "embed" else [])
    result = CliRunner().invoke(main, args)
    assert_clean_error(result, f"node entity {node['entity_id']} frame {last + 1} is not in frames 0..{last}")
    assert not out.exists()


@pytest.mark.parametrize("category", ["global", "temporal"])
def test_ask_with_another_embedding_dimension_is_clean(built, category):
    graph, emb = built
    result = CliRunner().invoke(
        main,
        ["ask", "--graph", str(graph), "--embeddings", str(emb), "--question", "Who runs?",
         "--category", category],
        env={"RAVU_EMBED_DIM": "64"},
    )
    assert_clean_error(result, f"{emb}: vectors have dimension 256, expected 64")


@pytest.mark.parametrize("budget", ["0", "-2"])
def test_ask_rejects_a_budget_below_one(built, budget):
    graph, emb = built
    result = CliRunner().invoke(
        main, ["ask", "--graph", str(graph), "--embeddings", str(emb), "--question", "Who runs?",
               "--category", "global", "--budget", budget]
    )
    assert result.exit_code == 2 and "Invalid value for '--budget'" in result.output


def test_ask_without_embeddings_index_is_clean(built, tmp_path):
    graph, emb = built
    alone = tmp_path / "f.bin"
    alone.write_bytes(emb.read_bytes())
    result = CliRunner().invoke(
        main, ["ask", "--graph", str(graph), "--embeddings", str(alone), "--question", "Who runs?"]
    )
    assert_clean_error(result, f"{alone}.index.jsonl: cannot read: No such file")


def test_ask_with_a_reordered_embeddings_index_is_clean(built, tmp_path):
    graph, emb = built
    copy = tmp_path / "embeddings.bin"
    copy.write_bytes(emb.read_bytes())
    lines = (emb.parent / "embeddings.bin.index.jsonl").read_text().splitlines(keepends=True)
    index = tmp_path / "embeddings.bin.index.jsonl"
    index.write_text("".join([lines[1], lines[0]] + lines[2:]))
    result = CliRunner().invoke(
        main, ["ask", "--graph", str(graph), "--embeddings", str(copy), "--question", "Who runs?"]
    )
    assert_clean_error(result, f"{index}: line 1: should be ")
    assert "re-run `ravu embed`" in result.output


def test_ask_with_a_stale_description_is_clean(built, tmp_path):
    graph, emb = built
    doc = json.loads(graph.read_text())
    nodes = rows(doc["nodes"])
    nodes[3] = new_state(doc, nodes[3], "a purple elephant juggling")
    doc["nodes"] = table(nodes, doc["nodes"])
    edited = tmp_path / "graph.json"
    edited.write_text(json.dumps(doc))
    result = CliRunner().invoke(
        main, ["ask", "--graph", str(edited), "--embeddings", str(emb), "--question", "Who runs?"]
    )
    assert_clean_error(result, f"{emb}.index.jsonl: line ")
    assert """should be '"a purple elephant juggling"\\n'""" in result.output
    assert "re-run `ravu embed`" in result.output


@pytest.mark.parametrize("text", ["Who\nruns?", "Who runs?\r", "Who\u2028runs?"])
@pytest.mark.parametrize("name", ["--question", "--option"])
def test_ask_rejects_a_line_break_in_a_question_or_option(built, name, text):
    graph, emb = built
    args = ["ask", "--graph", str(graph), "--embeddings", str(emb), "--question", "Who runs?",
            "--option", "a fox", "--option", "a dog"]
    args[args.index(name) + 1] = text
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"Error: Invalid value for '{name}': must not hold a line break" in result.output


def test_eval_qa_on_a_question_with_a_line_break_is_clean(corpus_dir, tmp_path):
    lines = (corpus_dir / "questions.jsonl").read_text().splitlines()
    item = json.loads(lines[1])
    lines[1] = json.dumps({**item, "question": item["question"].replace(" ", "\n", 1)})
    dataset = tmp_path / "questions.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(
        main, ["eval", "qa", "--corpus", str(corpus_dir), "--dataset", str(dataset)]
    )
    assert_clean_error(result, "line 2: line break in question")


def test_embed_reports_vectors_and_nodes(built, tmp_path):
    graph, emb = built
    out = tmp_path / "again.bin"
    result = CliRunner().invoke(main, ["embed", "--graph", str(graph), "--out", str(out)])
    assert result.exit_code == 0, result.output
    nodes = len(json.loads(graph.read_text())["nodes"]["entity_id"])
    vectors = len((emb.parent / "embeddings.bin.index.jsonl").read_text().splitlines())
    assert vectors < nodes
    assert result.output == f"wrote {vectors} vectors for {nodes} nodes to {out} (+ {out}.index.jsonl)\n"
    assert out.read_bytes() == emb.read_bytes()


def test_embed_on_a_node_without_description_is_clean(built, tmp_path):
    graph, _ = built
    doc = json.loads(graph.read_text())
    nodes = rows(doc["nodes"])
    node = nodes[3] = new_state(doc, nodes[3], None)
    doc["nodes"] = table(nodes, doc["nodes"])
    undescribed = tmp_path / "graph.json"
    undescribed.write_text(json.dumps(doc))
    out = tmp_path / "out.bin"
    result = CliRunner().invoke(main, ["embed", "--graph", str(undescribed), "--out", str(out)])
    assert_clean_error(result, f"node entity {node['entity_id']} frame {node['frame_index']} has no description")
    assert not out.exists()


def test_build_on_wrong_shaped_observations_is_clean(corpus_dir, tmp_path):
    obs = tmp_path / "observations.jsonl"
    obs.write_text('{"frame_index": 0, "entities": 5}\n')
    result = CliRunner().invoke(
        main, ["build", "--observations", str(obs),
               "--tracklets", str(video_dir(corpus_dir) / "tracklets.json"),
               "--out", str(tmp_path / "g.json")]
    )
    assert_clean_error(result, "line 1: malformed frame")
    assert not (tmp_path / "g.json").exists()


def test_events_on_graph_with_bad_fps_is_clean(built, tmp_path):
    graph, _ = built
    doc = json.loads(graph.read_text())
    doc["fps"] = "x"
    bad_graph = tmp_path / "graph.json"
    bad_graph.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["events", "--graph", str(bad_graph)])
    assert_clean_error(result, "malformed graph document")


def test_bad_config_value_is_clean(corpus_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"top_k": "ten"}')
    result = CliRunner().invoke(
        main, ["--config", str(config), "eval", "loc", "--corpus", str(corpus_dir),
               "--dataset", str(corpus_dir / "localization.jsonl")]
    )
    assert_clean_error(result, "config field 'top_k' must be int")


def test_bad_env_value_is_clean(tmp_path):
    result = CliRunner().invoke(
        main, ["synth", "--seed", "1", "--videos", "1", "--out", str(tmp_path / "c")],
        env={"RAVU_EMBED_DIM": "abc"},
    )
    assert_clean_error(result, "RAVU_EMBED_DIM must be an integer")


@pytest.mark.parametrize(
    "values, message",
    [
        ({"fps": 0}, "config field 'fps' must be a finite number > 0"),
        ({"embed_dim": -3}, "config field 'embed_dim' must be >= 1"),
        ({"budget": 0}, "config field 'budget' must be >= 1"),
        ({"hier_per_event": 0}, "config field 'hier_per_event' must be >= 1"),
        ({"max_retries": 0}, "config field 'max_retries' must be >= 1"),
        ({"deadline_s": -1.5}, "config field 'deadline_s' must be a finite number > 0"),
        ({"min_iou": 1.5}, "config field 'min_iou' must be between 0 and 1"),
    ],
)
def test_out_of_range_config_value_fails_build_cleanly(corpus_dir, tmp_path, values, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    vd = video_dir(corpus_dir)
    result = CliRunner().invoke(
        main, ["--config", str(config), "build", "--observations", str(vd / "observations.jsonl"),
               "--tracklets", str(vd / "tracklets.json"), "--out", str(tmp_path / "g.json")]
    )
    assert_clean_error(result, message)
    assert not (tmp_path / "g.json").exists()


def test_zero_top_k_fails_eval_loc_cleanly(corpus_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"top_k": 0}')
    result = CliRunner().invoke(
        main, ["--config", str(config), "eval", "loc", "--corpus", str(corpus_dir),
               "--dataset", str(corpus_dir / "localization.jsonl")]
    )
    assert_clean_error(result, "config field 'top_k' must be >= 1, got 0")


def test_out_of_range_env_value_is_clean(tmp_path):
    result = CliRunner().invoke(
        main, ["synth", "--seed", "1", "--videos", "1", "--out", str(tmp_path / "c")],
        env={"RAVU_EMBED_DIM": "0"},
    )
    assert_clean_error(result, "RAVU_EMBED_DIM must be >= 1, got 0")


NOT_UTF8 = b"\xff\xfe\x00"


def test_build_on_non_utf8_observations_is_clean(corpus_dir, tmp_path):
    obs = tmp_path / "observations.jsonl"
    obs.write_bytes(NOT_UTF8)
    result = CliRunner().invoke(
        main, ["build", "--observations", str(obs),
               "--tracklets", str(video_dir(corpus_dir) / "tracklets.json"),
               "--out", str(tmp_path / "g.json")]
    )
    assert_clean_error(result, f"{obs}: not UTF-8 text")


def test_eval_qa_on_non_utf8_dataset_is_clean(corpus_dir, tmp_path):
    dataset = tmp_path / "questions.jsonl"
    dataset.write_bytes(NOT_UTF8)
    result = CliRunner().invoke(
        main, ["eval", "qa", "--corpus", str(corpus_dir), "--dataset", str(dataset)]
    )
    assert_clean_error(result, f"{dataset}: not UTF-8 text")


def test_config_directory_is_clean(tmp_path):
    result = CliRunner().invoke(
        main, ["--config", str(tmp_path), "synth", "--seed", "1", "--videos", "1",
               "--out", str(tmp_path / "c")]
    )
    assert_clean_error(result, f"{tmp_path}: cannot read")


# ---------------------------------------------------------------------------
# Copies of a built graph document, each edited one way, run through the CLI
# in the directory that holds them: a copy that only reorders the document
# prints, embeds and answers as the original does (one with its node rows
# reversed is above), and broken ones are refused.


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A directory holding one video's ``graph.json``, its ``ravu events`` output as ``events.out`` and its
    embeddings as ``ordered.bin``, made by the CLI from a one-video corpus."""
    runner = CliRunner()
    root = tmp_path_factory.mktemp("documents")
    result = runner.invoke(main, ["synth", "--seed", "1", "--videos", "1", "--out", str(root / "corpus")])
    assert result.exit_code == 0, result.output
    video = video_dir(root / "corpus")
    result = runner.invoke(main, ["build", "--observations", str(video / "observations.jsonl"),
                                  "--tracklets", str(video / "tracklets.json"), "--out", str(root / "graph.json")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["events", "--graph", str(root / "graph.json")])
    assert result.exit_code == 0, result.output
    (root / "events.out").write_text(result.output)
    result = runner.invoke(main, ["embed", "--graph", str(root / "graph.json"), "--out", str(root / "ordered.bin")])
    assert result.exit_code == 0, result.output
    return root


def run_in(directory, monkeypatch, args):
    """``ravu args`` run by CliRunner in ``directory``, so that paths read as the arguments spell them."""
    monkeypatch.chdir(directory)
    return CliRunner().invoke(main, args)


def embeds_and_prints_as_the_original(documents, monkeypatch, name):
    """``name``.json prints the same events as graph.json and embeds to byte-identical files."""
    result = run_in(documents, monkeypatch, ["events", "--graph", f"{name}.json"])
    assert result.exit_code == 0 and result.output == (documents / "events.out").read_text()
    result = run_in(documents, monkeypatch, ["embed", "--graph", f"{name}.json", "--out", f"{name}.bin"])
    assert result.exit_code == 0, result.output
    for suffix in (".bin", ".bin.index.jsonl"):
        assert (documents / f"{name}{suffix}").read_bytes() == (documents / f"ordered{suffix}").read_bytes()


def test_a_document_with_its_tables_backwards_prints_embeds_and_answers_as_the_original(documents, monkeypatch):
    # The graph keeps every field in one order: a copy with its frame and edge rows, every entity's events, the
    # events keys and the numbering of its states and relations reversed prints the same events, embeds to
    # byte-identical files and answers the same.
    doc = json.loads((documents / "graph.json").read_text())
    doc["frames"] = {k: v[::-1] for k, v in doc["frames"].items()}
    doc["edges"] = {k: v[::-1] for k, v in doc["edges"].items()}
    doc["events"] = {key: {k: v[::-1] for k, v in evs.items()} for key, evs in reversed(doc["events"].items())}
    doc["states"] = {k: v[::-1] for k, v in doc["states"].items()}
    doc["relations"].reverse()
    for name, column, count in (("nodes", "state", len(doc["states"]["attributes"])),
                                ("edges", "relation", len(doc["relations"]))):
        doc[name][column] = [count - 1 - i for i in doc[name][column]]
    (documents / "backwards.json").write_text(json.dumps(doc))
    embeds_and_prints_as_the_original(documents, monkeypatch, "backwards")
    for category in ("causal", "temporal", "descriptive", "global"):
        outputs = set()
        for graph in ("graph", "backwards"):
            result = run_in(documents, monkeypatch, [
                "ask", "--graph", f"{graph}.json", "--embeddings", "ordered.bin", "--category", category,
                "--question", "What did the gray man do after climbing a tree?",
                "--option", "carrying a stick", "--option", "pawing at a box",
            ])
            assert result.exit_code == 0, result.output
            outputs.add(result.output)
        assert len(outputs) == 1


def doubled(doc):
    nodes = doc["nodes"]
    for k in ("entity_id", "frame_index", "state"):
        nodes[k].append(nodes[k][0])
    nodes["box"] += nodes["box"][:4]
    return json.dumps(doc)


def past(doc):
    doc["nodes"]["frame_index"][-1] = len(doc["frames"]["frame_index"])
    return json.dumps(doc)


def renumbered(doc):
    doc["frames"]["frame_index"][-1] = len(doc["frames"]["frame_index"])
    return json.dumps(doc)


def nan_fps(doc):
    doc["fps"] = float("nan")
    return json.dumps(doc)


def huge_timestamp(doc):
    doc["frames"]["timestamp_s"][1] = "HUGE"
    return json.dumps(doc).replace('"HUGE"', "1e400")


def format_1(doc):
    """The document in format 1, as earlier versions wrote it: one object per frame, node, edge and event."""
    frames, states, nodes, edges, relations = doc["frames"], doc["states"], doc["nodes"], doc["edges"], doc["relations"]
    old = {
        "fps": doc["fps"],
        "frames": [dict(zip(frames, row)) for row in zip(*frames.values())],
        "nodes": [
            {"entity_id": e, "frame_index": f, "attributes": states["attributes"][s],
             "description": states["description"][s], "box": nodes["box"][4 * i:4 * i + 4]}
            for i, (e, f, s) in enumerate(zip(nodes["entity_id"], nodes["frame_index"], nodes["state"]))
        ],
        "edges": [
            {"frame_index": f, "subject_id": a, "object_id": b, "relation": relations[r]}
            for f, a, b, r in zip(edges["frame_index"], edges["subject_id"], edges["object_id"], edges["relation"])
        ],
        "events": {key: [dict(zip(evs, row)) for row in zip(*evs.values())] for key, evs in doc["events"].items()},
    }
    assert len(old["nodes"]) == len(nodes["entity_id"]) and old["events"] and "format" not in old
    return json.dumps(old, sort_keys=True, separators=(",", ":")) + "\n"


# A copy that lists one node twice, holds a node past the last frame, numbers a frame past the end, has a NaN fps
# or a frame timestamp that overflows to infinity is refused, and so is a copy in format 1.
BROKEN_DOCUMENTS = {"doubled": doubled, "past": past, "renumbered": renumbered, "nan-fps": nan_fps,
                    "huge-timestamp": huge_timestamp, "format-1": format_1}


@pytest.mark.parametrize("bad, edit", BROKEN_DOCUMENTS.items(), ids=BROKEN_DOCUMENTS)
def test_a_broken_document_is_refused_with_one_error_line(documents, monkeypatch, bad, edit):
    (documents / f"{bad}.json").write_text(edit(json.loads((documents / "graph.json").read_text())))
    result = run_in(documents, monkeypatch, ["events", "--graph", f"{bad}.json"])
    # Exit code 1, an Error line, no traceback: the command ended by exiting, not by an exception.
    assert result.exit_code == 1
    assert re.search(f"^Error: {bad}.json: ", result.output, re.M)
    assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)
    if bad == "doubled":
        assert re.search("^Error: doubled.json: graph lists node entity", result.output, re.M)
    if bad == "format-1":
        assert re.search("^Error: format-1.json: .* it is format 1, .*re-run `ravu build`", result.output, re.M)


# ---------------------------------------------------------------------------
# Each setting of a ``--config`` file reaches the command that reads it.


def config_args(tmp_path, **values):
    """``--config`` and a file holding ``values``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return ["--config", str(path)]


class Recording:
    """The default config's backend, keeping every bundle it generates for; a role in ``garbage`` gets
    a malformed reply."""

    def __init__(self, garbage=()):
        self.inner, self.garbage, self.bundles = cli.make_backend(RavuConfig()), garbage, []

    def generate(self, bundle):
        self.bundles.append(bundle)
        return "@@@ not parseable @@@" if bundle.role in self.garbage else self.inner.generate(bundle)

    def answer(self, bundle, question, options):
        return self.inner.answer(bundle, question, options)

    def embed(self, text):
        return self.inner.embed(text)

    def candidates(self, role):
        """The number of candidates in each prompt of ``role``."""
        return [len(b.user_payload.partition("candidates:\n")[2].splitlines()) for b in self.bundles if b.role == role]


def recorded(monkeypatch, args, garbage=()):
    """The ``Recording`` that ``make_backend`` gave the command ``args``, and the command's output."""
    recording = Recording(garbage)
    monkeypatch.setattr(cli, "make_backend", lambda cfg: recording)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return recording, result.output


def ingested(tmp_path, observations, tracklets, **values):
    """The graph document that ``ravu ingest`` writes under a config of ``values``."""
    out = tmp_path / "partial.json"
    result = CliRunner().invoke(main, [*config_args(tmp_path, **values), "ingest", "--observations",
                                       str(observations), "--tracklets", str(tracklets), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return json.loads(out.read_text())


def test_ingest_stamps_frames_at_the_configured_fps(corpus_dir, tmp_path):
    vd = video_dir(corpus_dir)
    default, configured = (ingested(tmp_path, vd / "observations.jsonl", vd / "tracklets.json", **values)
                           for values in ({}, {"fps": 2}))
    frames = default["frames"]["frame_index"]
    assert default["fps"] == 1 and default["frames"]["timestamp_s"] == frames
    assert configured["fps"] == 2 and configured["frames"]["timestamp_s"] == [f / 2 for f in frames]


def test_ingest_matches_tracks_at_the_configured_min_iou(tmp_path):
    observations, tracklets = tmp_path / "observations.jsonl", tmp_path / "tracklets.json"
    attributes = {"appearance": "red fox", "action": "waiting", "body_pose": "standing"}
    observations.write_text(json.dumps({"frame_index": 0, "description": "[E0] waits.", "source_ref": "",
                                        "entities": [{"local_id": 0, "attributes": attributes, "box": [0, 0, 2, 2]}]}))
    # The entity's box and the track's overlap at IoU 0.5.
    tracklets.write_text(json.dumps({"tracks": [{"track_id": 3, "boxes": {"0": [0, 0, 2, 1]}}]}))
    ids = [ingested(tmp_path, observations, tracklets, **values)["nodes"]["entity_id"]
           for values in ({}, {"min_iou": 0.6})]
    assert ids == [[3], [4]]


def global_ask(built):
    graph, emb = built
    return ["ask", "--graph", str(graph), "--embeddings", str(emb), "--question", "What happens over the whole video?",
            "--category", "global"]


def test_ask_retrieves_at_most_the_configured_budget(built, tmp_path):
    frames = []
    for values in ({}, {"budget": 2}):
        result = CliRunner().invoke(main, [*config_args(tmp_path, **values), *global_ask(built)])
        assert result.exit_code == 0, result.output
        frames.append(json.loads(result.output)["frames"])
    assert len(frames[0]) > 2 and 0 < len(frames[1]) <= 2


def test_ask_pools_the_configured_candidates_per_event(built, tmp_path, monkeypatch):
    pools = [recorded(monkeypatch, [*config_args(tmp_path, **values), *global_ask(built)])[0].candidates("event_select")
             for values in ({}, {"hier_per_event": 1})]
    assert pools[0][0] > pools[1][0] > 0


def test_eval_loc_reranks_the_configured_top_k(corpus_dir, tmp_path, monkeypatch):
    """The configured ``top_k`` is the number of candidate rows ``localize`` takes from the index; the
    rerank prompt then lists each distinct text among them once, so it may list fewer."""
    args = ["eval", "loc", "--corpus", str(corpus_dir), "--dataset", str(corpus_dir / "localization.jsonl")]
    top_k = EmbeddingIndex.top_k
    taken = []  # per run, each (k, candidates returned) that ``top_k`` saw

    def recording_top_k(index, query_vector, k):
        candidates = top_k(index, query_vector, k)
        taken[-1].add((k, len(candidates)))
        return candidates

    monkeypatch.setattr(EmbeddingIndex, "top_k", recording_top_k)
    for values in ({}, {"top_k": 3}):
        taken.append(set())
        recorded(monkeypatch, [*config_args(tmp_path, **values), *args])
    assert taken == [{(RavuConfig().top_k, RavuConfig().top_k)}, {(3, 3)}]


def test_ask_asks_a_malformed_breakdown_the_configured_max_retries(built, tmp_path, monkeypatch):
    graph, emb = built
    args = ["ask", "--graph", str(graph), "--embeddings", str(emb), "--question", "What did the fox do?"]
    calls = []
    for values in ({}, {"max_retries": 3}):
        recording, output = recorded(monkeypatch, [*config_args(tmp_path, **values), *args], garbage={"breakdown"})
        assert json.loads(output)["flags"] == ["breakdown fallback"]
        calls.append(sum(b.role == "breakdown" for b in recording.bundles))
    assert calls == [2, 3]
