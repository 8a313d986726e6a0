"""Reasoning-plan DSL: typed steps, parser, and canonical renderer.

Grammar, one step per line::

    function_name(arg=value, arg=value, ...)

Values are double-quoted strings, integers, or ``$n`` references to the
result of an earlier step (1-based). Blank lines and ``#`` comments are
ignored. Forward references are rejected, as are unknown functions, bad
argument names, and type-incompatible references.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError

# Result types a step can produce.
NODE = "node"
TIME = "time"
FRAMES = "frames"
COUNT = "count"
SEGMENT = "segment"

# The written-out name is accepted and canonicalized to the short one.
ALIASES = {"analyze_entity_events": "analyze_events"}

# An ``events_to_sample`` value; its groups are the direction and count of ``previous:N`` or ``next:N``.
EVENTS_TO_SAMPLE_RE = re.compile(r"^(?:(previous|next):([1-9]\d*)|current|all)$")
# The parts of a video that ``extract_temporal_part`` targets, in video order.
TEMPORAL_PARTS = ("beginning", "middle", "end")


@dataclass(frozen=True)
class Ref:
    """Reference to the result of an earlier step (1-based)."""

    step: int


@dataclass(frozen=True)
class ArgSpec:
    literal: str | None = None  # "str", "int", or None
    ref_types: frozenset = frozenset()
    required: bool = True
    choices: frozenset | None = None
    pattern: re.Pattern | None = None


@dataclass(frozen=True)
class Function:
    """One plan function: its result type, whether it produces frames (and so takes a share of
    the frame budget), its arguments in rendering order, and the label of the fallback its
    runner, the ``ravu.reasoning.StepRunner`` method of its name, may flag (``None``: none)."""

    result: str
    produces_frames: bool
    args: dict[str, ArgSpec]
    fallback: str | None = None


FUNCTIONS: dict[str, Function] = {
    "localize_node": Function(NODE, True, {"query": ArgSpec(literal="str")}, "rerank"),
    "identify_node": Function(NODE, False, {"query": ArgSpec(literal="str")}, "identify"),
    "analyze_events": Function(TIME, False, {
        "query": ArgSpec(literal="str"),
        "node": ArgSpec(ref_types=frozenset({NODE})),
    }, "event-analysis"),
    "sample_entity_events": Function(FRAMES, True, {
        "node": ArgSpec(ref_types=frozenset({NODE})),
        "sample_start_time": ArgSpec(literal="int", ref_types=frozenset({TIME})),
        "events_to_sample": ArgSpec(literal="str", pattern=EVENTS_TO_SAMPLE_RE),
    }),
    "extract_temporal_part": Function(SEGMENT, True, {
        "target_part": ArgSpec(literal="str", choices=frozenset(TEMPORAL_PARTS)),
    }),
    "count_nodes": Function(COUNT, False, {
        "node_query": ArgSpec(literal="str"),
        "event_condition": ArgSpec(literal="str", required=False),
    }),
    "get_global_context": Function(FRAMES, True, {}),
}


@dataclass
class ReasoningStep:
    function: str
    args: dict[str, object] = field(default_factory=dict)


@dataclass
class ReasoningPlan:
    question: str = ""
    analysis: str = ""
    steps: list[ReasoningStep] = field(default_factory=list)


_STEP_RE = re.compile(r"^(\w+)\((.*)\)$")
_ARG_RE = re.compile(r'\s*(\w+)\s*=\s*("[^"]*"|\$\d+|-?\d+)\s*(?:,|$)')


def _parse_args(raw: str, lineno: int) -> dict[str, object]:
    args: dict[str, object] = {}
    pos = 0
    raw = raw.strip()
    while pos < len(raw):
        match = _ARG_RE.match(raw, pos)
        if not match:
            raise ParseError(f"cannot parse arguments near {raw[pos:pos + 20]!r}", line=lineno)
        name, value = match.group(1), match.group(2)
        if name in args:
            raise ParseError(f"duplicate argument '{name}'", line=lineno)
        if value.startswith('"'):
            args[name] = value[1:-1]
        elif value.startswith("$"):
            args[name] = Ref(int(value[1:]))
        else:
            args[name] = int(value)
        pos = match.end()
    return args


def _check_step(function: str, args: dict[str, object], steps: list[ReasoningStep], lineno: int) -> None:
    spec = FUNCTIONS[function].args
    for name in args:
        if name not in spec:
            raise ParseError(f"unknown argument '{name}' for {function}", line=lineno)
    for name, arg_spec in spec.items():
        if name not in args:
            if arg_spec.required:
                raise ParseError(f"missing argument '{name}' for {function}", line=lineno)
            continue
        value = args[name]
        if isinstance(value, Ref):
            if not arg_spec.ref_types:
                raise ParseError(
                    f"argument '{name}' of {function} does not accept references", line=lineno
                )
            if value.step < 1 or value.step > len(steps):
                raise ParseError(f"forward reference ${value.step}", line=lineno)
            produced = FUNCTIONS[steps[value.step - 1].function].result
            if produced not in arg_spec.ref_types:
                raise ParseError(
                    f"argument '{name}' of {function} cannot take a "
                    f"{produced} result from step {value.step}",
                    line=lineno,
                )
            continue
        if isinstance(value, str):
            if arg_spec.literal != "str":
                raise ParseError(f"argument '{name}' of {function} must not be a string", line=lineno)
            if arg_spec.choices is not None and value not in arg_spec.choices:
                raise ParseError(
                    f"argument '{name}' must be one of {sorted(arg_spec.choices)}", line=lineno
                )
            if arg_spec.pattern is not None and not arg_spec.pattern.match(value):
                raise ParseError(f"argument '{name}' value {value!r} is malformed", line=lineno)
        elif isinstance(value, int):
            if arg_spec.literal != "int":
                raise ParseError(f"argument '{name}' of {function} must not be an integer", line=lineno)


def parse_plan(text: str, question: str = "", analysis: str = "") -> ReasoningPlan:
    steps: list[ReasoningStep] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _STEP_RE.match(stripped)
        if not match:
            raise ParseError(f"not a step call: {stripped!r}", line=lineno)
        function = ALIASES.get(match.group(1), match.group(1))
        if function not in FUNCTIONS:
            raise ParseError(f"unknown function '{match.group(1)}'", line=lineno)
        args = _parse_args(match.group(2), lineno)
        _check_step(function, args, steps, lineno)
        steps.append(ReasoningStep(function=function, args=args))

    if not steps:
        raise ParseError("plan has no steps")
    return ReasoningPlan(question=question, analysis=analysis, steps=steps)


def render(plan: ReasoningPlan) -> str:
    """Canonical text form; ``parse_plan(render(p))`` reproduces the steps."""
    lines = []
    for step in plan.steps:
        parts = []
        for name in FUNCTIONS[step.function].args:
            if name not in step.args:
                continue
            value = step.args[name]
            if isinstance(value, Ref):
                parts.append(f"{name}=${value.step}")
            elif isinstance(value, str):
                parts.append(f'{name}="{value}"')
            else:
                parts.append(f"{name}={value}")
        lines.append(f"{step.function}({', '.join(parts)})")
    return "\n".join(lines)
