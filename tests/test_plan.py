import re

import pytest

from ravu.backends import load_system_prompt
from ravu.errors import ParseError
from ravu.plan import FUNCTIONS, Ref, parse_plan, render

CANONICAL = """\
localize_node(query="man on stage sitting")
analyze_events(query="when did the man start sitting", node=$1)
sample_entity_events(node=$1, sample_start_time=$2, events_to_sample="previous:1")
"""


def test_parse_canonical_plan():
    plan = parse_plan(CANONICAL, question="What did the man do before sitting?")
    assert [s.function for s in plan.steps] == [
        "localize_node",
        "analyze_events",
        "sample_entity_events",
    ]
    assert plan.steps[1].args["node"] == Ref(1)
    assert plan.steps[2].args["sample_start_time"] == Ref(2)
    assert plan.steps[2].args["events_to_sample"] == "previous:1"


def test_render_round_trip():
    plan = parse_plan(CANONICAL)
    text = render(plan)
    again = parse_plan(text)
    assert render(again) == text
    assert again.steps == plan.steps


def test_comments_and_blank_lines_ignored():
    plan = parse_plan("# intro\n\nget_global_context()\n  # done\n")
    assert len(plan.steps) == 1


def test_alias_is_canonicalized():
    plan = parse_plan(
        'localize_node(query="x")\nanalyze_entity_events(query="y", node=$1)'
    )
    assert plan.steps[1].function == "analyze_events"


def test_int_literal_accepted_for_time():
    plan = parse_plan(
        'localize_node(query="x")\n'
        'sample_entity_events(node=$1, sample_start_time=3, events_to_sample="all")'
    )
    assert plan.steps[1].args["sample_start_time"] == 3


def test_optional_argument():
    parse_plan('count_nodes(node_query="dog")')
    parse_plan('count_nodes(node_query="dog", event_condition="running")')


NEGATIVE_CASES = [
    # (plan text, expected error line, expected message fragment)
    ("frobnicate()", 1, "unknown function"),
    ('localize_node(query="x")\nteleport(query="y")', 2, "unknown function"),
    ("localize_node()", 1, "missing argument 'query'"),
    ('localize_node(q="x")', 1, "unknown argument 'q'"),
    ("localize_node(query=3)", 1, "must not be an integer"),
    ('analyze_events(query="y", node=$1)', 1, "forward reference"),
    ('localize_node(query="x")\nanalyze_events(query="y", node=$5)', 2, "forward reference"),
    ('analyze_events(query="y", node=$0)', 1, "forward reference"),
    ('localize_node(query="x")\nanalyze_events(query="y", node=7)', 2, "must not be an integer"),
    ('analyze_events(query="y", node="thing")', 1, "must not be a string"),
    ('localize_node(query="x")\nlocalize_node(query=$1)', 2, "does not accept references"),
    ('extract_temporal_part(target_part="start")', 1, "must be one of"),
    ("extract_temporal_part(target_part=1)", 1, "must not be an integer"),
    ('localize_node(query="x")\n'
     'sample_entity_events(node=$1, sample_start_time=$1, events_to_sample="all")',
     2, "cannot take a node result"),
    ('localize_node(query="x")\n'
     'analyze_events(query="y", node=$1)\n'
     'sample_entity_events(node=$2, sample_start_time=$2, events_to_sample="all")',
     3, "cannot take a time result"),
    # The first bad line is reported, even when a later line is bad too.
    ('localize_node(query="x")\n'
     'sample_entity_events(node=$1, sample_start_time=$1, events_to_sample="all")\n'
     'frobnicate()',
     2, "cannot take a node result"),
    ('localize_node(query="x")\n'
     'sample_entity_events(node=$1, sample_start_time=0, events_to_sample="previous:0")',
     2, "malformed"),
    ('localize_node(query="x")\n'
     'sample_entity_events(node=$1, sample_start_time=0, events_to_sample="sideways:2")',
     2, "malformed"),
    ('localize_node(query="x" query="y")', 1, "cannot parse arguments"),
    ('localize_node(query="x", query="y")', 1, "duplicate argument"),
    ("just some prose", 1, "not a step call"),
    ("localize_node(query='single quotes')", 1, "cannot parse arguments"),
    ("", None, "no steps"),
]


@pytest.mark.parametrize("text,line,fragment", NEGATIVE_CASES)
def test_negative_cases_report_line_and_reason(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_plan(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_question_and_analysis_carried():
    plan = parse_plan("get_global_context()", question="Q?", analysis="A.")
    assert plan.question == "Q?" and plan.analysis == "A."


def test_breakdown_prompt_lists_the_table_functions():
    """The breakdown prompt's "Available functions" are the table's, in its order, each with its arguments in order."""
    listed = load_system_prompt("breakdown").split("Available functions:", 1)[1]
    calls = [(name, [arg.strip() for arg in args.split(",") if arg.strip()])
             for name, args in re.findall(r"(\w+)\(([^)]*)\)", listed)]
    assert calls == [(name, list(function.args)) for name, function in FUNCTIONS.items()]
