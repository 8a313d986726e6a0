"""Command-line interface for the video-graph QA pipeline."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import graph_model
from .backends import MockBackend, RemoteBackend
from .config import RavuConfig, load_config
from .datasets import CATEGORIES, dump_loc, dump_mcq, load_loc, load_mcq
from .errors import RavuError, read_document
from .evaluate import (
    VideoAssets,
    answer,
    build_video,
    build_video_graph,
    eval_localization,
    eval_qa,
    report_to_csv,
    report_to_json,
    retrieve,
)
from .graph_builder import read_embeddings, write_embeddings
from .graph_model import SpatioTemporalGraph
from .index import EmbeddingIndex
from .ingestion import associate, parse_observations, parse_tracklets
from .plan import render
from .synth import make_corpus


def make_backend(cfg: RavuConfig):
    if cfg.backend == "mock":
        return MockBackend(seed=cfg.mock_seed, dim=cfg.embed_dim)
    if cfg.backend == "remote":
        return RemoteBackend(
            cfg.endpoint, token=cfg.token, model=cfg.model,
            deadline_s=cfg.deadline_s, dim=cfg.embed_dim,
        )
    raise click.ClickException(f"unknown backend {cfg.backend!r}")


def _load_graph(path: str) -> SpatioTemporalGraph:
    """The graph document at ``path``; one that ``deserialize`` refuses ends the command."""
    text = read_document(path)
    try:
        return graph_model.deserialize(text)
    except RavuError as exc:
        raise click.ClickException(f"{path}: {exc}")


def _load_corpus(corpus_dir: str, cfg: RavuConfig, backend) -> dict[str, VideoAssets]:
    assets: dict[str, VideoAssets] = {}
    for video_dir in sorted(p for p in Path(corpus_dir).iterdir() if p.is_dir()):
        obs = video_dir / "observations.jsonl"
        tracks = video_dir / "tracklets.json"
        if not obs.exists() or not tracks.exists():
            continue
        assets[video_dir.name] = build_video(
            read_document(obs), read_document(tracks), backend, cfg
        )
    return assets


class _Main(click.Group):
    """Ends any RavuError a command raises as ``Error: ...`` with exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RavuError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config file; defaults to $RAVU_CONFIG.")
@click.pass_context
def main(ctx, config_path):
    """Build spatio-temporal video graphs and answer questions over them."""
    ctx.ensure_object(dict)
    ctx.obj["config"] = load_config(config_path)


@main.command()
@click.option("--observations", required=True, type=click.Path(exists=True))
@click.option("--tracklets", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def ingest(ctx, observations, tracklets, out):
    """Associate per-frame observations with tracklets into a partial graph."""
    cfg = ctx.obj["config"]
    obs = parse_observations(read_document(observations))
    tracks = parse_tracklets(read_document(tracklets))
    assoc = associate(obs, tracks, cfg.min_iou, cfg.fps)
    graph = SpatioTemporalGraph(
        frames=assoc.frames, nodes=assoc.nodes, edges=[], events={}, fps=cfg.fps
    )
    Path(out).write_text(graph_model.serialize(graph))
    click.echo(f"wrote {out}: {len(graph.frames)} frames, {len(graph.nodes)} nodes")


@main.command()
@click.option("--observations", required=True, type=click.Path(exists=True))
@click.option("--tracklets", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def build(ctx, observations, tracklets, out):
    """Full build: association, relation edges, descriptions, events. `ravu embed` embeds the graph."""
    cfg = ctx.obj["config"]
    backend = make_backend(cfg)
    graph, report = build_video_graph(read_document(observations), read_document(tracklets), backend, cfg)
    Path(out).write_text(graph_model.serialize(graph))
    click.echo(
        f"wrote {out}: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
        f"{report.dropped_edge_lines} dropped edge lines, "
        f"{len(report.fallback_entities)} segmentation fallbacks"
    )


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path(),
              help="Embeddings binary; the description index goes to <out>.index.jsonl.")
@click.pass_context
def embed(ctx, graph_path, out):
    """Embed all node descriptions of a built graph."""
    from .graph_builder import embed_graph

    cfg = ctx.obj["config"]
    backend = make_backend(cfg)
    graph = _load_graph(graph_path)
    embeddings = embed_graph(graph, backend)
    index_path = f"{out}.index.jsonl"
    write_embeddings(embeddings, out, index_path)
    click.echo(f"wrote {len(embeddings.vectors)} vectors for {len(embeddings)} nodes to {out} (+ {index_path})")


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--entity", type=int, default=None, help="Restrict to one entity id.")
@click.pass_context
def events(ctx, graph_path, entity):
    """Print the event timeline of a built graph."""
    graph = _load_graph(graph_path)
    for entity_id in graph.entity_ids():
        if entity is not None and entity_id != entity:
            continue
        for ev in graph.events.get(entity_id, ()):
            click.echo(f"entity {entity_id}: [{ev.start_frame}, {ev.end_frame}] {ev.summary}")


def _one_line(ctx, param, value):
    """``value``, a string or a tuple of them, if none holds a line break: every backend payload is line-oriented."""
    if any(map(graph_model.LINE_BREAK.search, (value,) if isinstance(value, str) else value)):
        raise click.BadParameter("must not hold a line break")
    return value


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--embeddings", "emb_path", required=True, type=click.Path(exists=True))
@click.option("--question", required=True, callback=_one_line)
@click.option("--option", "options", multiple=True, callback=_one_line,
              help="Answer options; repeat for each. Omit to only retrieve frames.")
@click.option("--category", default="temporal", type=click.Choice(CATEGORIES),
              help="The question's category. It picks the route (global: hierarchical retrieval on a graph with "
                   "events; any other: a breakdown into a plan) and the breakdown's examples: this category's, "
                   "or all of them for a category with none.")
@click.option("--budget", type=click.IntRange(min=1), default=None)
@click.pass_context
def ask(ctx, graph_path, emb_path, question, options, category, budget):
    """Answer a question (or just retrieve frames) over one built video."""
    cfg = ctx.obj["config"]
    backend = make_backend(cfg)
    graph = _load_graph(graph_path)
    embeddings = read_embeddings(emb_path, f"{emb_path}.index.jsonl", graph, dim=cfg.embed_dim)
    assets = VideoAssets(graph, EmbeddingIndex(embeddings), None)
    retrieval = retrieve(
        assets, question, category, backend,
        budget=budget if budget is not None else cfg.budget, top_k=cfg.top_k,
        per_event=cfg.hier_per_event, max_retries=cfg.max_retries,
    )
    out = {
        "frames": retrieval.frames,
        "plan": render(retrieval.plan) if retrieval.plan else None,
        "notes": retrieval.notes,
        "flags": retrieval.flags,
    }
    if options:
        out["choice"] = answer(assets, question, list(options), retrieval, backend)
        out["answer"] = options[out["choice"]]
    click.echo(json.dumps(out, indent=2, sort_keys=True))


def _emit_report(report: dict, out: str | None, fmt: str) -> None:
    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    if out:
        Path(out).write_text(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@main.group(name="eval")
def eval_group():
    """Accuracy evaluations over a corpus directory."""


@eval_group.command(name="qa")
@click.option("--corpus", required=True, type=click.Path(exists=True),
              help="Directory with one subdirectory per video.")
@click.option("--dataset", required=True, type=click.Path(exists=True),
              help="Multiple-choice questions, one JSON object per line.")
@click.option("--out", default=None, type=click.Path(), help="Report file.")
@click.option("--fmt", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.pass_context
def eval_qa_cmd(ctx, corpus, dataset, out, fmt):
    """Multiple-choice accuracy by category, in both blocked-content modes."""
    cfg = ctx.obj["config"]
    backend = make_backend(cfg)
    items = load_mcq(dataset)
    assets = _load_corpus(corpus, cfg, backend)
    report = eval_qa(items, assets, backend, cfg)
    _emit_report(report, out, fmt)


@eval_group.command(name="loc")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--method", default="rerank",
              type=click.Choice(["rerank", "text_embedding"]))
@click.option("--out", default=None, type=click.Path())
@click.option("--fmt", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.pass_context
def eval_loc_cmd(ctx, corpus, dataset, method, out, fmt):
    """Frame-localization accuracy for one retrieval method."""
    cfg = ctx.obj["config"]
    backend = make_backend(cfg)
    annotations = load_loc(dataset)
    assets = _load_corpus(corpus, cfg, backend)
    report = eval_localization(annotations, assets, backend, cfg, method)
    _emit_report(report, out, fmt)


@main.command()
@click.option("--seed", type=int, required=True)
@click.option("--videos", type=int, default=50)
@click.option("--frames", type=int, default=24)
@click.option("--entities", type=int, default=3)
@click.option("--questions", type=int, default=4)
@click.option("--out", required=True, type=click.Path())
def synth(seed, videos, frames, entities, questions, out):
    """Generate a synthetic corpus with ground-truth QA and localization."""
    worlds = make_corpus(seed, n_videos=videos, n_frames=frames,
                         n_entities=entities, questions_per_video=questions)
    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    all_mcq, all_loc = [], []
    for world in worlds:
        video_dir = root / world.video_id
        video_dir.mkdir(exist_ok=True)
        (video_dir / "observations.jsonl").write_text(world.observations_text)
        (video_dir / "tracklets.json").write_text(world.tracklets_text)
        all_mcq.extend(world.questions)
        all_loc.extend(world.loc_annotations)
    (root / "questions.jsonl").write_text(dump_mcq(all_mcq))
    (root / "localization.jsonl").write_text(dump_loc(all_loc))
    click.echo(
        f"wrote {len(worlds)} videos, {len(all_mcq)} questions, "
        f"{len(all_loc)} localization annotations to {out}"
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
