"""Model backends: one contract, a remote HTTP provider, and an offline mock.

Three model roles are used across the pipeline: text generation, multimodal
answering over frames, and text embedding. Every call site builds a
:class:`PromptBundle` whose ``user_payload`` is written by :func:`_payload`
and read back by :func:`_read` in one line grammar: ``key: value`` field
lines, and ``key:`` section lines each followed by its lines, up to the next
field or section. Keys are ``[a-z_]+``; section lines start with an index or
a frame number, so free text in them never reads as a key (the ``breakdown``
examples, which the mock does not read, are the exception). ``item <k>``
lines separate the node blocks of a batched ``node_description`` payload.
The mock provider applies fixed deterministic rules to what it reads, so
the whole pipeline is testable without network or model weights.

Mock rules per role:

- ``frame_graph``: each ``[Ea] <words> [Eb]`` pattern within a sentence of
  a ``frame`` block's ``description`` becomes a ``frame|a|words|b`` line,
  frames in payload order.
- ``node_description``: each block (``entity``, attribute fields and a
  ``relations`` section) gets one ``k|<sentence>`` line, the sentence
  templated as ``entity <id>: <appearance>; <action>; relations: <rendered
  edges or 'none'>``.
- ``event_segmentation``: each ``frames`` line (``frame|k``) is resolved to
  its ``states`` line (``k|action|description``); an event boundary falls
  wherever the action changes between consecutive frames; summary is
  ``<appearance> <action>``, read from the event's last frame.
- ``rerank``: the ``candidates`` line with maximum word overlap against
  ``grounding``; ties go to the lowest index. Output is the bare index.
- ``event_analysis``: start frame of the first ``events`` line whose summary
  contains every non-stopword ``question`` word, else the first one's.
- ``breakdown``: template lookup keyed by ``question``-prefix patterns.
- ``answer``: option with maximum content-word overlap against the
  concatenated frame descriptions plus the ``notes`` field.
- ``event_select``: the ``select`` number of ``candidates`` by content-word
  overlap with ``question``, descending, ties to the lowest index.

The test hook ``[BLOCK]`` anywhere in a payload raises BlockedContent.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cache
from importlib import resources

import numpy as np

from .errors import BackendError, BlockedContent, MalformedResponse, Timeout
from .graph_model import MENTION, SENTENCE_END
from .plan import TEMPORAL_PARTS

ROLES = frozenset(
    {
        "frame_graph",
        "node_description",
        "event_segmentation",
        "rerank",
        "event_analysis",
        "breakdown",
        "answer",
        "event_select",
    }
)

BLOCK_TOKEN = "[BLOCK]"

STOPWORDS = frozenset(
    """
    a an the is are was were be been am do does did doing done will would
    what who where when why how which this that these those it its itself
    he she they them his her their i you we me my your our of in on at to
    for and or but with by from as into over under about after before
    start started starts starting begin began begins beginning stop stopped
    stops end ended ends first last next previous then there here video
    entity relations none
    """.split()
)

_WORD_RE = re.compile(r"[a-z0-9]+")
_APPEARANCE_RE = re.compile(r"entity \d+: ([^;]+);")
_OPTION_INDEX_RE = re.compile(r"-?\d+")
# A field or section line with the line break before it; ``_read`` puts one before the first line.
_KEY_LINE_RE = re.compile(r"\n([a-z_]+):( ?)(.*)")
_ITEM_RE = re.compile(r"\nitem (\d+)\n")


def words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def content_words(text: str) -> set[str]:
    return {w for w in words(text) if w not in STOPWORDS}


@dataclass
class PromptBundle:
    """One backend request: a role-selected system prompt plus payload."""

    role: str
    system_prompt: str
    user_payload: str
    frame_refs: list[tuple[int, str, str]] | None = None  # (frame_index, source_ref, description)

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.frame_refs is not None and self.role != "answer":
            raise ValueError(f"frame_refs not allowed for role {self.role!r}")


@cache
def load_system_prompt(role: str) -> str:
    """System prompt template for a role, shipped as a package asset; read once."""
    return resources.files("ravu").joinpath(f"prompts/{role}.txt").read_text().strip()


def make_bundle(role: str, user_payload: str, frame_refs=None) -> PromptBundle:
    return PromptBundle(
        role=role,
        system_prompt=load_system_prompt(role),
        user_payload=user_payload,
        frame_refs=frame_refs,
    )


# ---------------------------------------------------------------------------
# Payloads: the one writer and the one reader, then the per-role builders


def _payload(**entries) -> str:
    """The payload of ``entries`` in order: a list of lines is a ``key:`` section,
    None is left out, and any other value is a ``key: value`` field."""
    lines = []
    for key, value in entries.items():
        if isinstance(value, list):
            lines.append(f"{key}:")
            lines += value
        elif value is not None:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _read(payload: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """The fields and sections of a payload, as :func:`_payload` wrote them; the first field of a key wins.

    One regex scan finds the key lines, so a long section is split in one call, not read line by line.
    """
    payload = "\n" + payload
    fields: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    section = None
    for m in _KEY_LINE_RE.finditer(payload):
        if section is not None:  # its lines run up to this key line, each after its line break
            sections[section] = payload[start : m.start()].split("\n")[1:]
            section = None
        key, space, value = m.groups()
        if space or value:
            if key not in fields:
                fields[key] = value
        else:
            section, start = key, m.end()
    if section is not None:
        sections[section] = payload[start:].split("\n")[1:]
    return fields, sections


def _numbered(texts: list[str]) -> list[str]:
    return [f"{i}|{text}" for i, text in enumerate(texts)]


def frame_graph_payload(frames: list[tuple[int, list[int], str]]) -> str:
    """One block per ``(frame_index, entity_ids, description)``, in the given order."""
    return "\n".join(
        _payload(frame=frame_index, entities=", ".join(map(str, entity_ids)), description=description)
        for frame_index, entity_ids, description in frames
    )


def node_description_payload(blocks: list[str]) -> str:
    """The :func:`node_block` texts, each after an ``item <k>`` line that numbers it from 0."""
    return "\n".join(f"item {k}\n{block}" for k, block in enumerate(blocks))


def node_block(entity_id: int, attributes: dict[str, str], edges) -> str:
    """One node's block of a ``node_description`` payload: its entity, attributes and relations.

    Written directly, not through :func:`_payload`: attribute keys come from
    the observations, so one may repeat ``entity`` or ``relations``, which
    keyword arguments cannot. The block is ``entity: <id>``, a line break,
    :func:`node_head` and then a line break and :func:`relation_line` per
    edge; a build puts its blocks together from these parts, rendering each
    state's head and each edge's line once.
    """
    relations = "".join(["\n" + relation_line(e.subject_id, e.relation, e.object_id) for e in edges])
    return f"entity: {entity_id}\n{node_head(attributes)}{relations}"


def node_head(attributes: dict[str, str]) -> str:
    """A node block's ``key: value`` line per attribute, keys sorted, each with its line break, then ``relations:``."""
    return "".join([f"{key}: {attributes[key]}\n" for key in sorted(attributes)]) + "relations:"


def relation_line(subject_id: int, relation: str, object_id: int) -> str:
    """One edge's line of a node block's ``relations`` section."""
    return f"{subject_id}|{relation}|{object_id}"


def event_segmentation_payload(entity_id: int, rows: list[tuple[int, str, str]]) -> str:
    """A table of the run's states, then its frames, for rows of (frame_index, action, node_description).

    Each distinct ``(action, description)`` pair is one ``k|action|description``
    line of the ``states`` section, ``k`` counting from 0 in first-seen
    order; the ``frames`` section has one ``frame_index|k`` line per row.
    """
    state_of: dict[tuple[str, str], str] = {}
    states, frames = [], []
    for frame_index, action, description in rows:
        key = action, description
        k = state_of.get(key)
        if k is None:
            k = state_of[key] = str(len(states))
            states.append(f"{k}|{action}|{description}")
        frames.append(f"{frame_index}|{k}")
    return _payload(entity=entity_id, states=states, frames=frames)


def rerank_payload(grounding: str, candidates: list[str]) -> str:
    return _payload(grounding=grounding, candidates=_numbered(candidates))


def event_analysis_payload(question: str, events) -> str:
    return _payload(question=question, events=[f"{ev.start_frame}|{ev.end_frame}|{ev.summary}" for ev in events])


def breakdown_payload(question: str, examples_text: str) -> str:
    return _payload(question=question, examples=[examples_text])


def answer_payload(question: str, options: list[str], notes: str = "") -> str:
    return _payload(question=question, options=_numbered(options), notes=notes or None)


def event_select_payload(question: str, candidates: list[str], top: int) -> str:
    return _payload(question=question, select=top, candidates=_numbered(candidates))


class MockBackend:
    """Deterministic offline provider; a pure function of (bundle, seed)."""

    def __init__(self, seed: int, dim: int):
        self.seed = seed
        self.dim = dim
        self._word_cache: dict[str, np.ndarray] = {}

    # -- embeddings

    def _word_vector(self, word: str) -> np.ndarray:
        vec = self._word_cache.get(word)
        if vec is None:
            digest = hashlib.blake2b(
                word.encode("utf-8"), digest_size=8, key=str(self.seed).encode()
            ).digest()
            rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
            vec = rng.standard_normal(self.dim)
            self._word_cache[word] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        tokens = words(text)
        if not tokens:
            return np.zeros(self.dim, dtype=np.float64)
        total = np.zeros(self.dim, dtype=np.float64)
        for tok in tokens:
            total += self._word_vector(tok)
        norm = np.linalg.norm(total)
        if norm == 0.0:
            return np.zeros(self.dim, dtype=np.float64)
        return total / norm

    # -- generation

    def generate(self, bundle: PromptBundle) -> str:
        self._check_blocked(bundle)
        handler = getattr(self, f"_role_{bundle.role}")
        return handler(bundle.user_payload)

    def answer(self, bundle: PromptBundle, question: str, options: list[str]) -> int:
        self._check_blocked(bundle)
        if BLOCK_TOKEN in question or any(BLOCK_TOKEN in o for o in options):
            raise BlockedContent("blocked content marker in question or options")
        if not options:
            raise ValueError("at least one option required")
        context = " ".join(desc for _, _, desc in (bundle.frame_refs or []))
        notes = _read(bundle.user_payload)[0].get("notes", "")
        haystack = content_words(context) | set(words(notes))
        overlaps = [len(content_words(opt) & haystack) for opt in options]
        best = max(range(len(options)), key=lambda i: (overlaps[i], -i))
        return best

    def _check_blocked(self, bundle: PromptBundle) -> None:
        if BLOCK_TOKEN in bundle.user_payload:
            raise BlockedContent("blocked content marker in payload")
        for _, _, desc in bundle.frame_refs or []:
            if BLOCK_TOKEN in desc:
                raise BlockedContent("blocked content marker in frame description")

    # -- per-role rules

    def _role_frame_graph(self, payload: str) -> str:
        triples: list[str] = []
        frame = ""
        for line in payload.splitlines():
            if line.startswith("frame:"):
                frame = line[len("frame:") :].strip()
                continue
            if not line.startswith("description:"):
                continue
            for sentence in SENTENCE_END.split(line[len("description:") :].strip()):
                mentions = list(MENTION.finditer(sentence))
                for left, right in zip(mentions, mentions[1:]):
                    between = sentence[left.end() : right.start()]
                    relation = " ".join(words(between))
                    if relation:
                        triples.append(f"{frame}|{left.group(1)}|{relation}|{right.group(1)}")
        return "\n".join(triples)

    def _role_node_description(self, payload: str) -> str:
        blocks = _ITEM_RE.split("\n" + payload)  # the text before item 0, then each k and its block
        out = []
        for k, block in zip(blocks[1::2], blocks[2::2]):
            fields, sections = _read(block)
            entity_id = int(fields["entity"])
            rendered = []
            for line in sections["relations"]:
                subj, rel, obj = line.split("|")
                rendered.append(f"{rel} entity {obj}" if int(subj) == entity_id else f"entity {subj} {rel}")
            appearance, action = fields.get("appearance", "").strip(), fields.get("action", "").strip()
            out.append(f"{k}|entity {entity_id}: {appearance}; {action}; relations: {', '.join(rendered) or 'none'}")
        return "\n".join(out)

    def _role_event_segmentation(self, payload: str) -> str:
        _, sections = _read(payload)
        states = {k: (action, description) for k, action, description in
                  (line.split("|", 2) for line in sections["states"])}
        events: list[list[str]] = []  # [start, end, action, last description]
        last = None
        for line in sections["frames"]:
            frame, k = line.split("|")
            if k == last:  # the state of the frame before: its event runs on
                events[-1][1] = frame
                continue
            last = k
            action, description = states[k]
            if events and events[-1][2] == action:
                events[-1][1], events[-1][3] = frame, description
            else:
                events.append([frame, frame, action, description])
        out = []
        for s, e, action, description in events:
            match = _APPEARANCE_RE.match(description)
            appearance = match.group(1).strip() if match else description
            out.append(f"{s}|{e}|{appearance} {action}")
        return "\n".join(out)

    def _role_rerank(self, payload: str) -> str:
        fields, sections = _read(payload)
        grounding = set(words(fields["grounding"]))
        candidates = [line.partition("|")[2] for line in sections["candidates"]]
        overlaps = [len(grounding & set(words(c))) for c in candidates]
        best = max(range(len(candidates)), key=lambda i: (overlaps[i], -i))
        return str(best)

    def _role_event_analysis(self, payload: str) -> str:
        fields, sections = _read(payload)
        query = content_words(fields["question"])
        events = []
        for line in sections["events"]:
            s, e, summary = line.split("|", 2)
            events.append((int(s), int(e), summary))
        if not events:
            return "0"
        for s, _, summary in events:
            if query and query <= set(words(summary)):
                return str(s)
        return str(events[0][0])

    def _role_breakdown(self, payload: str) -> str:
        # Only the fields above the examples section are read: it is 40-odd lines long.
        fields, _ = _read(payload.partition("\nexamples:")[0])
        return mock_breakdown(fields["question"])

    def _role_answer(self, payload: str) -> str:  # pragma: no cover - answer() is the entry
        raise MalformedResponse("answer role must go through answer()")

    def _role_event_select(self, payload: str) -> str:
        fields, sections = _read(payload)
        question = content_words(fields["question"])
        top = int(fields["select"])
        candidates = [line.partition("|")[2] for line in sections["candidates"]]
        ranked = sorted(
            range(len(candidates)),
            key=lambda i: (-len(question & set(words(candidates[i]))), i),
        )
        return ", ".join(str(i) for i in ranked[:top])


_ARTICLES = {"the", "a", "an"}


def _strip_articles(phrase: str) -> str:
    return " ".join(w for w in phrase.split() if w.lower() not in _ARTICLES)


_BEFORE_AFTER_RE = re.compile(
    r"^what did (?:the |a |an )?(?P<ent>.+?) do (?P<dir>before|after) (?P<evt>.+?)\??$",
    re.IGNORECASE,
)
_COUNT_RE = re.compile(r"^how many (?P<ent>.+?)\??$", re.IGNORECASE)
_PART_RE = re.compile(rf"\b(?:at|in|during) the (?P<part>{'|'.join(TEMPORAL_PARTS)})\b", re.IGNORECASE)


def mock_breakdown(question: str) -> str:
    """Template-based question breakdown used by the mock provider."""
    q = question.strip()
    match = _BEFORE_AFTER_RE.match(q)
    if match:
        ent = _strip_articles(match.group("ent"))
        evt = match.group("evt").rstrip(".?! ")
        direction = "previous" if match.group("dir").lower() == "before" else "next"
        return (
            f"analysis: locate the {ent} during '{evt}', find when that event starts, "
            f"then sample the {direction} event\n"
            "plan:\n"
            f'localize_node(query="{ent} {evt}")\n'
            f'analyze_events(query="when did the {ent} start {evt}", node=$1)\n'
            f'sample_entity_events(node=$1, sample_start_time=$2, events_to_sample="{direction}:1")'
        )
    match = _COUNT_RE.match(q)
    if match:
        ent = _strip_articles(match.group("ent"))
        for tail in (" appear", " appears", " are there", " are in the video", " do you see"):
            if ent.lower().endswith(tail):
                ent = ent[: -len(tail)]
                break
        return (
            f"analysis: count distinct entities matching '{ent}'\n"
            "plan:\n"
            f'count_nodes(node_query="{ent}")'
        )
    match = _PART_RE.search(q)
    if match:
        part = match.group("part").lower()
        return (
            f"analysis: the question targets the {part} of the video\n"
            "plan:\n"
            f'extract_temporal_part(target_part="{part}")'
        )
    return "analysis: no decomposition template applies; sample uniformly\nplan:\nget_global_context()"


class RemoteBackend:
    """HTTP provider of the minimal {role, system, user, frames?} schema, with the config's token, model and deadline."""

    def __init__(self, endpoint: str, token: str, model: str,
                 deadline_s: float, dim: int):
        if not endpoint:
            raise ValueError("remote backend requires an endpoint")
        self.endpoint = endpoint.rstrip("/")
        self.token = token
        self.model = model
        self.deadline_s = deadline_s
        self.dim = dim
        self._session = None

    def _post(self, body: dict) -> dict:
        import requests

        # One session per backend, so every call reuses its pooled connection.
        if self._session is None:
            self._session = requests.Session()
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        if self.model:
            body = {**body, "model": self.model}
        try:
            resp = self._session.post(
                self.endpoint, json=body, headers=headers, timeout=self.deadline_s
            )
        except (requests.exceptions.Timeout, requests.exceptions.ConnectionError) as exc:
            raise Timeout(f"remote backend unreachable: {exc}") from exc
        except requests.exceptions.RequestException as exc:
            raise BackendError(f"remote backend request failed: {exc}") from exc
        if resp.status_code == 451:
            raise BlockedContent("remote provider blocked the request")
        if resp.status_code != 200:
            raise MalformedResponse(f"remote backend returned HTTP {resp.status_code}")
        try:
            data = resp.json()
        except ValueError as exc:
            raise MalformedResponse("remote backend returned non-JSON body") from exc
        if not isinstance(data, dict):
            raise MalformedResponse("remote backend returned a JSON body that is not an object")
        return data

    def generate(self, bundle: PromptBundle) -> str:
        body = {
            "role": bundle.role,
            "system": bundle.system_prompt,
            "user": bundle.user_payload,
        }
        if bundle.frame_refs is not None:
            body["frames"] = [
                {"frame_index": fi, "source_ref": ref, "description": desc}
                for fi, ref, desc in bundle.frame_refs
            ]
        # An empty text is a reply like any other: each caller's parser decides.
        text = self._post(body).get("text")
        if not isinstance(text, str):
            raise MalformedResponse("remote backend reply has no text string")
        return text

    def embed(self, text: str) -> np.ndarray:
        data = self._post({"role": "embed", "system": "", "user": text})
        try:
            vec = np.asarray(json.loads(data["text"]), dtype=np.float64)
        except (KeyError, ValueError, TypeError) as exc:
            raise MalformedResponse("remote backend returned a malformed embedding") from exc
        if vec.shape != (self.dim,):
            raise MalformedResponse(
                f"remote backend returned an embedding of shape {vec.shape}, expected ({self.dim},)"
            )
        if not np.isfinite(vec).all():
            raise MalformedResponse("remote backend returned an embedding with a non-finite value")
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            return vec
        return vec / norm

    def answer(self, bundle: PromptBundle, question: str, options: list[str]) -> int:
        text = self.generate(bundle)
        match = _OPTION_INDEX_RE.search(text)
        if not match:
            raise MalformedResponse(f"expected an option index, got {text!r}")
        idx = int(match.group(0))
        if not 0 <= idx < len(options):
            raise MalformedResponse(f"option index {idx} out of range")
        return idx


def generate_items_with_retries(backend, items: list, bundle, parse, name, max_retries: int) -> list:
    """One value per item, asking for the items together in one prompt.

    ``bundle(asked)`` builds the prompt for a sublist of ``items``, and
    ``parse(text, asked)`` reads its reply into one entry per asked item:
    the item's value, or the ValueError or MalformedResponse that rejects
    it. Only rejected items are asked again, each at most
    ``max(1, max_retries)`` times in all; then MalformedResponse names
    ``name(item)`` of the first item still rejected. Blocked content and
    timeouts propagate immediately.
    """
    values: list = [None] * len(items)
    errors: dict[int, Exception] = {}
    pending = list(range(len(items)))
    for _ in range(max(1, max_retries)):
        if not pending:
            break
        asked = [items[i] for i in pending]
        outcome = parse(backend.generate(bundle(asked)), asked)
        rejected = []
        for i, value in zip(pending, outcome):
            if isinstance(value, Exception):
                errors[i] = value
                rejected.append(i)
            else:
                values[i] = value
        pending = rejected
    if pending:
        first = pending[0]
        raise MalformedResponse(f"{name(items[first])}: backend response invalid after retries: {errors[first]}")
    return values


def generate_with_retries(backend, bundle: PromptBundle, parse, max_retries: int):
    """Call generate up to ``max_retries`` times, validating with ``parse``.

    ``parse`` receives the raw text and either returns the final value or
    raises ValueError / MalformedResponse. Blocked content and timeouts
    propagate immediately; only validation failures are retried. This is
    :func:`generate_items_with_retries` for one item, named by its role.
    """

    def parse_one(text: str, _asked) -> list:
        try:
            return [parse(text)]
        except (ValueError, MalformedResponse) as exc:
            return [exc]

    return generate_items_with_retries(backend, [bundle.role], lambda _asked: bundle, parse_one, str, max_retries)[0]
