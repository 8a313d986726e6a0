"""The three workloads and the measurements they take.

Every workload is single-process and single-threaded, runs on the mock
backend, and feeds the program only generated text: observations and
tracklets documents, question and option strings, grounding phrases.

- ``ingest-long``: rounds of full builds of two 600-frame, 8-entity
  videos, each persisted and reloaded, then asked its questions.
- ``qa-short``: 50 videos of 24 frames and 3 entities, built in set-up,
  then timed passes of every question and localization.
- ``qa-long``: the same as ``qa-short`` over three 600-frame videos.

Each operation (one video build with its reload, one question, one
localization) counts as attempted, and as failed when it misses any check
in :mod:`checks`.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
from ravu import evaluate, graph_builder, graph_model, index
from ravu.backends import MockBackend
from ravu.config import RavuConfig
from ravu.datasets import McqItem
from ravu.evaluate import VideoAssets
from ravu.synth import make_corpus, synth_world
from tracing import COUNTER_KEYS, Tracer, layer_targets

# (videos, frames per video, entities per video)
SHAPES = {
    "ingest-long": (2, 600, 8),
    "qa-short": (50, 24, 3),
    "qa-long": (3, 600, 8),
}
QUESTIONS_PER_VIDEO = 4
# Set-up runs several times so its median is steady; ingest-long's set-up
# is a cold start on one small video, so it can afford more repetitions.
# The qa workloads build every video once per set-up, and their build and
# load metrics pool the set-ups' builds.
SETUP_REPS = {"ingest-long": 5, "qa-short": 3, "qa-long": 2}
# ingest-long asks its questions this many times after each round of builds.
INGEST_PASSES_PER_ROUND = 5
# Question samples a run takes at least: 100 puts ten beyond a p90 of all
# samples, and gives each of qa-long's 12 questions a median of 9 or more.
MIN_QUESTION_SAMPLES = 100
# Build-time scaling series of the traced run: (frames, entities).
SCALING_SIZES = ((24, 3), (200, 6), (600, 8))
ROLES = (
    "frame_graph", "node_description", "event_segmentation", "rerank",
    "event_analysis", "breakdown", "answer", "event_select", "embed",
)
TRACE_GAP_LIMIT = 0.05

# The machine these figures come from runs in spells of two speeds about
# 1.45x apart, for seconds to minutes. Each timing is scaled by the speed of
# a fixed reference loop measured just before it, to the speed at which that
# loop takes REFERENCE_S; the unscaled figures go to the summary line.
REFERENCE_ITERATIONS = 10_000
REFERENCE_REPEATS = 5
REFERENCE_S = 0.002

clock = time.perf_counter


class CountingBackend:
    """Delegating backend that counts calls and prompt tokens per role.

    Tokens are the whitespace proxy of ``evaluate.TokenCountingBackend``:
    words of the system prompt, the payload and any frame descriptions,
    or of the text to embed.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls: Counter = Counter()
        self.tokens: Counter = Counter()

    def reset(self) -> None:
        self.calls.clear()
        self.tokens.clear()

    def _count_bundle(self, bundle) -> None:
        tokens = len(bundle.system_prompt.split()) + len(bundle.user_payload.split())
        for _, _, description in bundle.frame_refs or []:
            tokens += len(description.split())
        self.calls[bundle.role] += 1
        self.tokens[bundle.role] += tokens

    def generate(self, bundle):
        self._count_bundle(bundle)
        return self.inner.generate(bundle)

    def answer(self, bundle, question, options):
        self._count_bundle(bundle)
        return self.inner.answer(bundle, question, options)

    def embed(self, text):
        self.calls["embed"] += 1
        self.tokens["embed"] += len(text.split())
        return self.inner.embed(text)


def reference_loop() -> int:
    """Fixed interpreter-bound work that no change to the program can touch."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += len(str(i))
    return total


def settle() -> float:
    """Prepare for the next operation; return its time scale.

    Collects garbage and freezes the survivors: the benchmark holds inputs
    and earlier results that a process running the program once would not,
    and frozen they stay out of the collections the next operation
    triggers. Then times the reference loop (mean of REFERENCE_REPEATS runs)
    and returns REFERENCE_S over that time, the factor that converts the
    next operation's wall time to the reference speed.
    """
    gc.collect()
    gc.freeze()
    start = clock()
    for _ in range(REFERENCE_REPEATS):
        reference_loop()
    return REFERENCE_S * REFERENCE_REPEATS / (clock() - start)


def typical(samples: dict, raw: bool = False) -> list[float]:
    """Each operation's median sample, scaled unless ``raw``, in operation order."""
    return [statistics.median(pair[raw] for pair in pairs) for pairs in samples.values()]


def without_answer(item: McqItem) -> McqItem:
    """The item as the program may see it: no oracle answer."""
    return McqItem(
        question=item.question, options=list(item.options), answer_index=0,
        category=item.category, video_id=item.video_id, subcategory=item.subcategory,
    )


class Run:
    """State and measurements of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = workdir
        self.cfg = RavuConfig()
        self.tracer = Tracer(layer_targets(CountingBackend)) if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed run-wide checks; the run is not correct
        self.failures: list[str] = []  # examples of failed operations
        # Time samples are (scaled, raw) pairs. Questions and localizations
        # are keyed by operation, and an operation's time is its median.
        # Builds and reloads are pooled over videos: (scaled, raw, nodes).
        self.setup_s: list[tuple[float, float]] = []
        self.build_s: list[tuple[float, float, int]] = []
        self.load_s: list[tuple[float, float]] = []
        self.build_calls: Counter = Counter()
        self.build_tokens: Counter = Counter()
        self.role_calls: Counter = Counter()  # every build backend, sampled or not
        self.role_tokens: Counter = Counter()
        self.question_s: dict[int, list[tuple[float, float]]] = defaultdict(list)
        self.localize_s: dict[int, list[tuple[float, float]]] = defaultdict(list)
        self.question_ops = 0
        # Per kind of operation: [summed wall time, summed gap to the spans].
        self.trace_gaps: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        self.scales: list[float] = []
        self.passes = 0
        self.rounds = 0
        self.reference: list[tuple] = []
        self.verdicts: list[list[str]] = []
        self.correct_answers = 0
        self.ill_posed: list[str] = []  # questions asked and timed but not checked
        self.checked: list[bool] = []  # per output of a pass: counts as an operation
        self.q_backend = CountingBackend(MockBackend(self.cfg.mock_seed, self.cfg.embed_dim))
        self.l_backend = CountingBackend(MockBackend(self.cfg.mock_seed, self.cfg.embed_dim))

    # -- bookkeeping

    def trace_gap(self) -> float:
        """The larger of the builds' and the questions' summed gaps between
        span self times and wall time, as a share of their wall time."""
        return max(gap / wall for wall, gap in self.trace_gaps.values())

    def settle(self) -> float:
        """:func:`settle`, keeping the scale for the summary."""
        scale = settle()
        self.scales.append(scale)
        return scale

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.extend(problems[:2])

    def traced(self):
        """Install the layer wrappers for the block, in the traced run only."""
        return self.tracer if self.trace else contextlib.nullcontext()

    def timed(self, fn, *args, gap: str | None = None, **kwargs):
        """Call ``fn`` and return (result, wall seconds).

        While the tracer is installed and ``gap`` names a kind of operation,
        also add up how far the self times of the call's spans are from its
        wall time.
        """
        tracing = gap is not None and self.trace and self.tracer.active
        mark = self.tracer.mark() if tracing else 0
        start = clock()
        result = fn(*args, **kwargs)
        wall = clock() - start
        if tracing:
            totals = self.trace_gaps[gap]
            totals[0] += wall
            totals[1] += abs(wall - self.tracer.self_total(mark))
        return result, wall

    # -- operations

    def build_and_reload(self, world, check: bool, sample: bool) -> tuple[VideoAssets, tuple]:
        """Build one video, persist it and reload it.

        Returns the reloaded assets and the seconds the three steps took,
        scaled and raw.

        With ``sample`` the build and reload times and backend counts feed
        the build metrics; with ``check`` the result is checked and counted
        as an operation.
        """
        backend = CountingBackend(MockBackend(self.cfg.mock_seed, self.cfg.embed_dim))
        scale = self.settle()
        built, build_s = self.timed(
            evaluate.build_video, world.observations_text, world.tracklets_text, backend, self.cfg,
            gap="build",
        )
        graph_path = self.workdir / f"{world.video_id}.json"
        bin_path = self.workdir / f"{world.video_id}.bin"
        rows_path = self.workdir / f"{world.video_id}.index.jsonl"

        def persist() -> str:
            text = graph_model.serialize(built.graph)
            graph_path.write_text(text)
            graph_builder.write_embeddings(built.index.records, bin_path, rows_path)
            return text

        def reload() -> VideoAssets:
            graph = graph_model.deserialize(graph_path.read_text())
            records = graph_builder.read_embeddings(bin_path, rows_path, graph)
            return VideoAssets(graph, index.EmbeddingIndex(records), built.build_report)

        graph_text, persist_s = self.timed(persist)
        load_scale = self.settle()
        reloaded, load_s = self.timed(reload)
        # A build lasts seconds, long enough for the machine's speed to
        # change: scale it by the reference speed before and after it.
        scale = 2 / (1 / scale + 1 / load_scale)
        self.role_calls.update(backend.calls)
        self.role_tokens.update(backend.tokens)
        if sample:
            self.build_s.append((build_s * scale, build_s, len(built.graph.nodes)))
            self.load_s.append((load_s * load_scale, load_s))
            self.build_calls.update(backend.calls)
            self.build_tokens.update(backend.tokens)
        if check:
            self.record(
                checks.graph_problems(world, built.graph, built.build_report)
                + checks.roundtrip_problems(
                    graph_text, reloaded.graph, built.index.records, reloaded.index.records
                )
            )
        raw = build_s + persist_s + load_s
        return reloaded, ((build_s + persist_s) * scale + load_s * load_scale, raw)

    def set_up(self, worlds, sample: bool) -> dict[str, VideoAssets]:
        """Build, persist and reload every video once, timed as one set-up."""
        assets, scaled, raw = {}, 0.0, 0.0
        for world in worlds:
            assets[world.video_id], (video_scaled, video_raw) = self.build_and_reload(
                world, False, sample
            )
            scaled += video_scaled
            raw += video_raw
        self.setup_s.append((scaled, raw))
        return assets

    def qa_pass(self, assets, questions, annotations, samples: bool) -> list[tuple]:
        """One pass over every question and localization; returns the outputs."""
        scale = self.settle()
        outputs = []
        for position, item in enumerate(questions):
            audit, wall = self.timed(
                evaluate.answer_question, assets[item.video_id], without_answer(item),
                self.q_backend, budget=self.cfg.budget, top_k=self.cfg.top_k,
                per_event=self.cfg.hier_per_event, gap="question",
            )
            outputs.append((audit.choice, tuple(audit.frames)))
            if samples:
                self.question_s[position].append((wall * scale, wall))
                self.question_ops += 1
        for position, ann in enumerate(annotations):
            loc, wall = self.timed(
                assets[ann.video_id].index.localize, ann.question, self.cfg.top_k, self.l_backend
            )
            outputs.append((loc.candidate.entity_id, loc.candidate.frame_index))
            if samples:
                self.localize_s[position].append((wall * scale, wall))
        return outputs

    def reference_problems(self, assets, questions, annotations, outputs) -> list[list[str]]:
        """Oracle checks of the untimed warm-up pass, one list per operation."""
        verdicts = []
        for item, (choice, frames) in zip(questions, outputs):
            n_frames = assets[item.video_id].graph.num_frames
            verdicts.append(checks.answer_problems(item, choice, frames, n_frames, self.cfg.budget))
        for ann, (_, frame) in zip(annotations, outputs[len(questions):]):
            problems = [] if frame in ann.gt_frames else [f"{ann.question!r}: frame {frame} not in gt"]
            query = self.l_backend.inner.embed(ann.question)
            problems += checks.top_k_problems(assets[ann.video_id].index, query, self.cfg.top_k)
            verdicts.append(problems)
        return verdicts

    def warm_up(self, assets, questions, annotations) -> None:
        """Untimed first pass: the reference outputs and their oracle verdicts."""
        self.reference = self.qa_pass(assets, questions, annotations, samples=False)
        self.verdicts = self.reference_problems(assets, questions, annotations, self.reference)
        self.correct_answers = sum(
            1 for item, (choice, _) in zip(questions, self.reference) if choice == item.answer_index
        )
        self.q_backend.reset()
        self.l_backend.reset()

    def timed_passes(self, assets, questions, annotations, seconds: float = 0.0,
                     at_least: int = 0) -> None:
        """Whole passes for ``seconds`` and at least ``at_least`` passes.

        Each output is checked against the warm-up pass.
        """
        start = clock()
        done = 0
        with self.traced():
            while clock() - start < seconds or done < at_least:
                outputs = self.qa_pass(assets, questions, annotations, samples=True)
                for out, ref, problems, checked in zip(
                    outputs, self.reference, self.verdicts, self.checked
                ):
                    if checked:
                        self.record(problems + ([] if out == ref else ["output differs from first pass"]))
                done += 1
        self.passes += done

    def min_passes(self, questions) -> int:
        """Passes that give MIN_QUESTION_SAMPLES latencies; one when traced."""
        return 1 if self.trace else math.ceil(MIN_QUESTION_SAMPLES / max(1, len(questions)))

    def questions_of(self, worlds) -> tuple[list[McqItem], list]:
        """Every question and localization of the worlds.

        Ill-posed questions are asked and timed like the others, so every
        seed asks the same mix, but they are not counted as operations.
        """
        questions = [item for world in worlds for item in world.questions]
        annotations = [ann for world in worlds for ann in world.loc_annotations]
        for world in worlds:
            for qi, item in enumerate(world.questions):
                posed = not checks.ill_posed(world, qi, item)
                self.checked.append(posed)
                if not posed:
                    self.ill_posed.append(f"{item.video_id}#{qi}")
        self.checked += [True] * len(annotations)
        return questions, annotations

    def eval_qa_agrees(self, assets, questions) -> None:
        """``eval_qa`` over the same items must match the benchmark's own tally."""
        if not questions:
            return
        report = evaluate.eval_qa(
            questions, assets, MockBackend(self.cfg.mock_seed, self.cfg.embed_dim)
        )
        mean_tokens = sum(self.q_backend.tokens.values()) / self.question_ops
        if not math.isclose(mean_tokens, report["mean_prompt_tokens"], rel_tol=1e-12):
            self.problems.append(
                f"prompt tokens per question {mean_tokens} != eval_qa {report['mean_prompt_tokens']}"
            )
        accuracy = report["overall"]["overall_accuracy"]
        if abs(accuracy * len(questions) - self.correct_answers) > 1e-6:
            self.problems.append(
                f"{self.correct_answers} correct answers != eval_qa accuracy {accuracy}"
            )

    # -- workloads

    def run_ingest(self) -> None:
        n_videos, n_frames, n_entities = SHAPES[self.workload]
        worlds = make_corpus(self.seed, n_videos, n_frames, n_entities, QUESTIONS_PER_VIDEO)
        questions, annotations = self.questions_of(worlds)
        cold_start = synth_world(self.seed)
        with self.traced():
            self.set_up([cold_start], sample=False)
        # Each round builds every video, asks its questions a few times and,
        # until there are SETUP_REPS of them, repeats the cold start: the
        # samples of each kind spread over the whole run.
        start = clock()
        min_passes = self.min_passes(questions)
        while self.rounds == 0 or (
            not self.trace and (clock() - start < self.seconds or self.passes < min_passes)
        ):
            with self.traced():
                assets = {w.video_id: self.build_and_reload(w, True, True)[0] for w in worlds}
            if self.rounds == 0:
                self.warm_up(assets, questions, annotations)
            self.timed_passes(assets, questions, annotations,
                              at_least=1 if self.trace else INGEST_PASSES_PER_ROUND)
            if not self.trace and len(self.setup_s) < SETUP_REPS[self.workload]:
                self.set_up([cold_start], sample=False)
            self.rounds += 1

    def run_qa(self) -> None:
        n_videos, n_frames, n_entities = SHAPES[self.workload]
        worlds = make_corpus(self.seed, n_videos, n_frames, n_entities, QUESTIONS_PER_VIDEO)
        questions, annotations = self.questions_of(worlds)
        with self.traced():
            assets = self.set_up(worlds, sample=True)
        self.warm_up(assets, questions, annotations)
        if self.trace:
            self.timed_passes(assets, questions, annotations, at_least=1)
        else:
            # The further set-ups run between stretches of question passes,
            # so that one slow spell of a shared machine does not cover
            # every sample of a video's build.
            reps = SETUP_REPS[self.workload]
            for rep in range(reps):
                if rep:
                    self.set_up(worlds, sample=True)
                self.timed_passes(assets, questions, annotations, seconds=self.seconds / reps)
            self.timed_passes(assets, questions, annotations,
                              at_least=self.min_passes(questions) - self.passes)
        self.eval_qa_agrees(assets, questions)

    def run(self) -> None:
        if self.workload == "ingest-long":
            self.run_ingest()
        else:
            self.run_qa()
        if self.trace:
            if self.trace_gap() > TRACE_GAP_LIMIT:
                self.problems.append(f"span self times miss {self.trace_gap():.1%} of the operations")
            self.scaling_series()

    def scaling_series(self) -> None:
        """Untraced build µs per node of one world at each ROADMAP size."""
        self.us_per_node = {}
        for n_frames, n_entities in SCALING_SIZES:
            world = synth_world(self.seed, n_frames, n_entities)
            backend = MockBackend(self.cfg.mock_seed, self.cfg.embed_dim)
            scale = self.settle()
            start = clock()
            built = evaluate.build_video(world.observations_text, world.tracklets_text, backend, self.cfg)
            self.us_per_node[n_frames] = (clock() - start) * scale / len(built.graph.nodes) * 1e6

    # -- metrics

    def end_to_end(self, raw: bool = False) -> dict[str, float]:
        """The end-to-end metrics; times at reference speed unless ``raw``."""
        builds = [sample[raw] for sample in self.build_s]
        sampled_nodes = sum(sample[2] for sample in self.build_s)
        questions = typical(self.question_s, raw)
        return {
            "setup_s": statistics.median(pair[raw] for pair in self.setup_s),
            "build_s_p50": statistics.median(builds),
            "build_nodes_per_s": sampled_nodes / sum(builds),
            "load_s_p50": statistics.median(sample[raw] for sample in self.load_s),
            "backend_calls_per_node": sum(self.build_calls.values()) / sampled_nodes,
            "prompt_tokens_per_node": sum(self.build_tokens.values()) / sampled_nodes,
            "question_ms_p50": float(np.percentile(questions, 50)) * 1e3,
            "question_ms_p90": float(np.percentile(questions, 90)) * 1e3,
            "questions_per_s": len(questions) / sum(questions),
            "localize_ms_p50": float(np.percentile(typical(self.localize_s, raw), 50)) * 1e3,
            "backend_calls_per_question": sum(self.q_backend.calls.values()) / self.question_ops,
            "prompt_tokens_per_question": sum(self.q_backend.tokens.values()) / self.question_ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        own = self.tracer.self_seconds()
        calls = self.tracer.calls()
        out: dict[str, float] = {}
        for name in {target[2] for target in self.tracer.targets}:
            out[f"{name}.s"] = own.get(name, 0.0)
            out[f"{name}.calls"] = calls[name]
        out.update({key: self.tracer.counts[key] for key in COUNTER_KEYS})
        role_calls = self.role_calls + self.q_backend.calls + self.l_backend.calls
        role_tokens = self.role_tokens + self.q_backend.tokens + self.l_backend.tokens
        for role in ROLES:
            out[f"backends.calls.{role}"] = role_calls[role]
            out[f"backends.prompt_tokens.{role}"] = role_tokens[role]
        for n_frames, value in self.us_per_node.items():
            out[f"graph_builder.us_per_node.f{n_frames}"] = value
        out["traced.build_s_p50"] = statistics.median(sample[0] for sample in self.build_s)
        out["traced.question_ms_p50"] = float(np.percentile(typical(self.question_s), 50)) * 1e3
        out["trace.max_gap"] = self.trace_gap()
        return out
