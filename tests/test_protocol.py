"""Wire protocol: strategy term syntax, state serialization, JSON-lines server."""

import dataclasses
import io
import json

import pytest

from strategem.exercise import Registry, power_exercise
from strategem.navigation import DOWNS, LEFT, RIGHT, UP, down_env_rule, down_rule
from strategem.powers import ADD_EXP, MUL_EXP, parse, print_expr
from strategem.protocol import (
    EXERCISE_DEFAULT_REF,
    TermParseError,
    WireFormatError,
    default_rule_table,
    deserialize_state,
    handle_request,
    parse_term,
    print_term,
    serialize_state,
    serve,
)
from strategem.services import initial_state
from strategem.strategy import (
    FAIL,
    SUCCEED,
    Check,
    Choice,
    Label,
    Rec,
    Rule,
    Seq,
    Var,
    enter_rule,
    leave_rule,
)

EX = power_exercise()

A = Rule(ADD_EXP)
M = Rule(MUL_EXP)


# ---------------------------------------------------------------------------
# strategy term syntax

def test_parse_term_atoms():
    assert parse_term("AddExp") == A
    assert parse_term("succeed") == SUCCEED
    assert parse_term("fail") == FAIL
    assert parse_term("Up") == Rule(UP)
    assert parse_term("Downs") == Rule(DOWNS)
    assert parse_term("Left") == Rule(LEFT)
    assert parse_term("Right") == Rule(RIGHT)
    assert parse_term("Down(0)") == Rule(down_rule(0))
    assert parse_term("Down(2)") == Rule(down_rule(2))
    assert parse_term("Down(@slot)") == Rule(down_env_rule("slot"))
    assert parse_term("Enter(l)") == Rule(enter_rule("l"))
    assert parse_term("Leave(l)") == Rule(leave_rule("l"))


def test_parse_term_operators_and_precedence():
    assert parse_term("AddExp ; MulExp | DistExp") == Choice(
        Seq(A, parse_term("MulExp")), parse_term("DistExp")
    )
    assert parse_term("AddExp ; (MulExp | DistExp)") == Seq(
        A, Choice(parse_term("MulExp"), parse_term("DistExp"))
    )
    assert parse_term("~AddExp ; MulExp") == Seq(Check(A), M)
    assert parse_term("~(AddExp ; MulExp)") == Check(Seq(A, M))
    assert parse_term("a ; b | c", {"a": ADD_EXP, "b": MUL_EXP, "c": ADD_EXP}) \
        == Choice(Seq(A, M), A)


def test_parse_term_binders():
    assert parse_term("mu x . AddExp ; x") == Rec("x", Seq(A, Var("x")))
    assert parse_term("powers: AddExp") == Label("powers", A)
    nested = parse_term("l: mu x . AddExp ; x | succeed")
    assert nested == Label("l", Rec("x", Choice(Seq(A, Var("x")), SUCCEED)))


def test_parse_term_errors():
    for text in ("", "AddExp |", "NoSuchRule", "mu . x", "Down(x)",
                 "(AddExp", "AddExp MulExp", "x"):
        with pytest.raises(TermParseError):
            parse_term(text)


def test_unbound_names_are_rules_bound_names_are_variables():
    s = parse_term("mu Up . Up")  # binder shadows the rule name
    assert s == Rec("Up", Var("Up"))
    assert parse_term("Up") == Rule(UP)


def test_print_term_round_trips():
    samples = [
        A,
        Seq(A, M),
        Choice(Seq(A, M), parse_term("DistExp")),
        Seq(Choice(A, M), parse_term("DistExp")),
        Check(Seq(A, M)),
        Seq(Check(A), M),
        Rec("x", Choice(Seq(A, Var("x")), SUCCEED)),
        Label("l", Seq(A, Rule(down_rule(1)))),
        Seq(Label("l", A), M),
        Rule(down_env_rule("k")),
        EX.strategy,
    ]
    for s in samples:
        assert parse_term(print_term(s)) == s, print_term(s)


def test_print_term_examples():
    assert print_term(Seq(A, M)) == "AddExp ; MulExp"
    assert print_term(Choice(Seq(A, M), FAIL)) == "AddExp ; MulExp | fail"
    assert print_term(Seq(Choice(A, M), M)) == "(AddExp | MulExp) ; MulExp"
    assert print_term(Check(Seq(A, M))) == "~(AddExp ; MulExp)"
    assert print_term(Rule(down_rule(3))) == "Down(3)"
    assert print_term(Label("l", Rec("x", Var("x")))) == "l: mu x . x"


def test_default_rule_table_names():
    table = default_rule_table()
    assert set(table) == {"AddExp", "MulExp", "DistExp", "ReciExp", "BugAddExp",
                          "Up", "Downs", "Left", "Right"}


# ---------------------------------------------------------------------------
# state serialization

def wire(expr, start=None, trace=(), path=(), ref=EXERCISE_DEFAULT_REF, env=None):
    return {
        "env": env if env is not None else {"bindings": {}, "labelPath": []},
        "expr": expr,
        "path": list(path),
        "strategyRef": ref,
        "start": start if start is not None else expr,
        "trace": list(trace),
    }


def test_serialize_state_shape():
    state = initial_state(EX, parse("(a^3*a^4)^2"))
    assert serialize_state(state, EXERCISE_DEFAULT_REF, "(a^3*a^4)^2", []) == \
        wire("(a^3*a^4)^2")


def test_deserialize_fresh_state():
    state, ref, start, trace = deserialize_state(wire("(a^3*a^4)^2"), EX)
    assert state == initial_state(EX, parse("(a^3*a^4)^2"))
    assert ref == EXERCISE_DEFAULT_REF and start == "(a^3*a^4)^2" and trace == []


def test_deserialize_replays_the_trace_onto_the_strategy():
    from strategem import services

    from strategem.navigation import unfocus

    state0 = initial_state(EX, parse("(a^3*a^4)^2"))
    cand = services.onefirst(EX, state0)
    round_tripped, _, _, _ = deserialize_state(
        wire("(a^7)^2", start="(a^3*a^4)^2", trace=["AddExp"], path=(0,),
             env={"bindings": {}, "labelPath": ["powers"]}),
        EX,
    )
    # same environment, focus and strategy position as the live candidate
    assert round_tripped.env == cand.state.env
    assert unfocus(round_tripped.focus) == unfocus(cand.state.focus)
    assert round_tripped.focus.path == cand.state.focus.path
    assert round_tripped.remaining == cand.state.remaining
    # hints keep working after the round trip
    assert services.onefirst(EX, round_tripped).rule.name == "MulExp"


def test_deserialize_survives_off_strategy_traces():
    # ReciExp is not reachable in the strategy: the replay keeps the longest
    # prefix (here: nothing) and trusts the transmitted expression
    state, _, _, _ = deserialize_state(
        wire("1/a^-5", start="a^5", trace=["ReciExp"]), EX)
    assert print_expr(state.focus.focus) == "1/a^-5"
    assert state.remaining == EX.strategy


def test_deserialize_rejects_malformed_states():
    good = wire("a^2*a^3")
    for mutate in (
        lambda w: w.pop("expr"),
        lambda w: w.pop("trace"),
        lambda w: w.update(expr=7),
        lambda w: w.update(path="root"),
        lambda w: w.update(path=[-1]),
        lambda w: w.update(trace=[3]),
        lambda w: w.update(strategyRef="somethingElse"),
        lambda w: w.update(strategyRef={"term": "mu . x"}),
        lambda w: w.update(env={"bindings": []}),
        lambda w: w.update(env={"stack": []}),
        lambda w: w.update(extra=1),
    ):
        broken = json.loads(json.dumps(good))
        mutate(broken)
        with pytest.raises((WireFormatError, TermParseError)):
            deserialize_state(broken, EX)


def test_deserialize_checks_the_path_against_the_expression():
    from strategem.services import InvalidLocationError

    with pytest.raises(InvalidLocationError):
        deserialize_state(wire("a^2*a^3", path=(0, 0, 0)), EX)


# ---------------------------------------------------------------------------
# request handling, byte-for-byte

def req(**kwargs):
    return json.dumps(kwargs)


def test_derivation_golden():
    line = req(service="derivation", exercise="powerExercise",
               state=wire("(a^3*a^4)^2"))
    assert handle_request(line) == \
        '{"ok":{"steps":[["AddExp","(a^7)^2"],["MulExp","a^14"]]}}'


def test_ready_golden():
    assert handle_request(req(service="ready", exercise="powerExercise",
                              state=wire("a^14"))) == '{"ok":{"ready":true}}'
    assert handle_request(req(service="ready", exercise="powerExercise",
                              state=wire("a^2*a^3"))) == '{"ok":{"ready":false}}'


def test_stepsremaining_golden():
    assert handle_request(req(service="stepsremaining", exercise="powerExercise",
                              state=wire("(a^3*a^4)^2"))) == '{"ok":{"remaining":2}}'


def test_applicable_golden():
    line = req(service="applicable", exercise="powerExercise",
               state=wire("(a^3*a^4)^2"), location=[])
    assert handle_request(line) == '{"ok":{"rules":["DistExp","ReciExp"]}}'
    line = req(service="applicable", exercise="powerExercise",
               state=wire("(a^3*a^4)^2"), location=[0])
    assert handle_request(line) == '{"ok":{"rules":["AddExp"]}}'


def test_diagnose_goldens():
    def diag(current, submitted):
        return handle_request(req(service="diagnose", exercise="powerExercise",
                                  state=wire(current), expression=submitted))

    assert diag("(a^3*a^4)^2", "(a^7)^2") == \
        '{"ok":{"diagnosis":"Expected","rule":"AddExp"}}'
    assert diag("a^3*a^4", "a^12") == \
        '{"ok":{"diagnosis":"Buggy","rule":"BugAddExp"}}'
    assert diag("a^3*a^4", "a^3*a^4") == \
        '{"ok":{"diagnosis":"Similar","rule":null}}'
    assert diag("a^5", "1/a^-5") == \
        '{"ok":{"diagnosis":"Detour","rule":"ReciExp"}}'
    assert diag("(a^3*a^4)^2", "a^14") == \
        '{"ok":{"diagnosis":"Correct","rule":null}}'
    assert diag("(a^3*a^4)^2", "a^13") == \
        '{"ok":{"diagnosis":"NotEq","rule":null}}'


def test_onefirst_then_follow_up_through_the_wire():
    first = json.loads(handle_request(req(
        service="onefirst", exercise="powerExercise", state=wire("(a^3*a^4)^2"))))
    assert first["ok"]["rule"] == "AddExp"
    state1 = first["ok"]["state"]
    assert state1["expr"] == "(a^7)^2"
    assert state1["trace"] == ["AddExp"]
    assert state1["path"] == [0]
    assert state1["env"]["labelPath"] == ["powers"]

    second = json.loads(handle_request(req(
        service="onefirst", exercise="powerExercise", state=state1)))
    assert second["ok"]["rule"] == "MulExp"
    assert second["ok"]["state"]["expr"] == "a^14"
    assert second["ok"]["state"]["trace"] == ["AddExp", "MulExp"]

    final = handle_request(req(service="ready", exercise="powerExercise",
                               state=second["ok"]["state"]))
    assert final == '{"ok":{"ready":true}}'


def test_allfirsts_lists_candidates_with_extended_traces():
    result = json.loads(handle_request(req(
        service="allfirsts", exercise="powerExercise",
        state=wire("(a^2*a^3)*(b^2*b^3)"))))
    cands = result["ok"]["candidates"]
    assert [c["rule"] for c in cands] == ["AddExp", "AddExp"]
    assert [c["state"]["path"] for c in cands] == [[0], [1]]
    assert all(c["state"]["trace"] == ["AddExp"] for c in cands)


def test_apply_adopts_the_strategy_step():
    result = json.loads(handle_request(req(
        service="apply", exercise="powerExercise", rule="AddExp", location=[0],
        state=wire("(a^3*a^4)^2"))))
    state1 = result["ok"]["state"]
    assert state1["expr"] == "(a^7)^2"
    assert state1["trace"] == ["AddExp"]
    follow = handle_request(req(service="stepsremaining",
                                exercise="powerExercise", state=state1))
    assert follow == '{"ok":{"remaining":1}}'


def test_generate_is_deterministic_on_the_wire():
    line = req(service="generate", exercise="powerExercise",
               difficulty="easy", seed=7)
    assert handle_request(line) == handle_request(line)
    state = json.loads(handle_request(line))["ok"]["state"]
    assert state["trace"] == [] and state["path"] == []
    assert state["start"] == state["expr"]
    # defaults apply when difficulty and seed are omitted
    bare = json.loads(handle_request(req(service="generate",
                                         exercise="powerExercise")))
    assert bare["ok"]["state"]["expr"]


def test_lint_request_goldens():
    clean = handle_request(req(service="lint", exercise="powerExercise"))
    assert clean == '{"ok":{"clean":true,"findings":[]}}'
    dirty = json.loads(handle_request(req(service="lint",
                                          strategy="mu x . x ; AddExp")))
    findings = dirty["ok"]["findings"]
    assert dirty["ok"]["clean"] is False
    assert findings[0]["kind"] == "LeftRecursion"
    assert findings[0]["path"] == []
    assert findings[0]["certainty"] == "definite"


def test_lint_requires_exactly_one_subject():
    both = handle_request(req(service="lint", exercise="powerExercise",
                              strategy="AddExp"))
    assert json.loads(both)["error"]["code"] == "parse-error"
    neither = handle_request(req(service="lint"))
    assert json.loads(neither)["error"]["code"] == "parse-error"


# ---------------------------------------------------------------------------
# error codes

def error_code(response):
    return json.loads(response)["error"]["code"]


def test_bad_json_is_a_parse_error():
    assert error_code(handle_request("{nope")) == "parse-error"
    assert error_code(handle_request("[1,2]")) == "parse-error"


def test_unknown_service():
    assert error_code(handle_request(req(service="solveItAll",
                                         exercise="powerExercise"))) == "unknown-service"


def test_unknown_fields_are_rejected():
    response = handle_request(req(service="ready", exercise="powerExercise",
                                  state=wire("a^2"), bonus=1))
    assert error_code(response) == "parse-error"
    assert "bonus" in json.loads(response)["error"]["message"]


def test_missing_fields_are_rejected():
    response = handle_request(req(service="ready", exercise="powerExercise"))
    assert error_code(response) == "parse-error"
    assert "state" in json.loads(response)["error"]["message"]


def test_unknown_exercise_code():
    response = handle_request(req(service="ready", exercise="fractions",
                                  state=wire("a^2")))
    assert error_code(response) == "unknown-code"


def test_missing_generator_maps_to_unknown_code():
    registry = Registry([dataclasses.replace(EX, generator=None)])
    response = handle_request(req(service="generate", exercise="powerExercise"),
                              registry)
    assert error_code(response) == "unknown-code"


def test_bad_expression_text():
    response = handle_request(req(service="ready", exercise="powerExercise",
                                  state=wire("a^^2")))
    assert error_code(response) == "parse-error"


def test_invalid_location():
    response = handle_request(req(service="apply", exercise="powerExercise",
                                  rule="AddExp", location=[9],
                                  state=wire("a^2*a^3")))
    assert error_code(response) == "invalid-location"


def test_rule_not_applicable():
    response = handle_request(req(service="apply", exercise="powerExercise",
                                  rule="AddExp", location=[],
                                  state=wire("(a^3*a^4)^2")))
    assert error_code(response) == "rule-not-applicable"


def test_left_recursive_strategy_reports_budget_exceeded():
    response = handle_request(req(
        service="derivation", exercise="powerExercise",
        state=wire("a^2*a^3", ref={"term": "mu x . x ; AddExp"})))
    assert error_code(response) == "budget-exceeded"


def test_no_step_available():
    response = handle_request(req(service="onefirst", exercise="powerExercise",
                                  state=wire("a^14")))
    assert error_code(response) == "no-step-available"


def test_bad_generate_arguments():
    assert error_code(handle_request(req(
        service="generate", exercise="powerExercise", seed="seven"))) == "parse-error"
    assert error_code(handle_request(req(
        service="generate", exercise="powerExercise",
        difficulty="extreme"))) == "parse-error"


def test_json_booleans_are_not_integers():
    # bool is a subclass of int in Python, so true would otherwise mean 1
    for request in (
        req(service="generate", exercise="powerExercise", seed=True),
        req(service="apply", exercise="powerExercise", rule="AddExp",
            location=[True], state=wire("a^2*a^3")),
        req(service="ready", exercise="powerExercise", state=wire("a^2*a^3", path=[True])),
    ):
        assert error_code(handle_request(request)) == "parse-error"


def test_responses_are_canonical_json():
    lines = [
        req(service="derivation", exercise="powerExercise", state=wire("(a^3*a^4)^2")),
        req(service="allfirsts", exercise="powerExercise", state=wire("a^2*a^3")),
        req(service="lint", exercise="powerExercise"),
        req(service="ready", exercise="fractions", state=wire("a^2")),
    ]
    for line in lines:
        response = handle_request(line)
        assert response == json.dumps(json.loads(response), sort_keys=True,
                                      separators=(",", ":"))
        assert "\n" not in response


# ---------------------------------------------------------------------------
# the line server

def test_serve_answers_line_by_line_and_survives_errors():
    lines = [
        req(service="ready", exercise="powerExercise", state=wire("a^14")),
        "",
        "{broken",
        req(service="stepsremaining", exercise="powerExercise",
            state=wire("(a^3*a^4)^2")),
        "   ",
        req(service="onefirst", exercise="powerExercise", state=wire("a^14")),
    ]
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out)
    answers = out.getvalue().splitlines()
    assert len(answers) == 4  # blank lines are skipped, errors answered
    assert answers[0] == '{"ok":{"ready":true}}'
    assert error_code(answers[1]) == "parse-error"
    assert answers[2] == '{"ok":{"remaining":2}}'
    assert error_code(answers[3]) == "no-step-available"


def test_serve_answers_after_too_deep_or_too_long_input():
    deep_term = "(" * 3000 + "Up" + ")" * 3000
    lines = [
        req(service="diagnose", exercise="powerExercise", state=wire("a^14"),
            expression="(" * 3000 + "a" + ")" * 3000),
        req(service="lint", strategy=deep_term),
        req(service="allfirsts", exercise="powerExercise",
            state=wire("a^14", ref={"term": deep_term})),
        req(service="diagnose", exercise="powerExercise", state=wire("a^14"),
            expression="a^" + "9" * 5000),
        req(service="ready", exercise="powerExercise", state=wire("a^14")),
    ]
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out)
    answers = out.getvalue().splitlines()
    assert [error_code(a) for a in answers[:4]] == ["parse-error"] * 4
    assert answers[4] == '{"ok":{"ready":true}}'


def test_serve_answers_after_terms_too_big_to_solve():
    # each parses, then is too deep for the recursive term code or makes an
    # exponent past Python's int-digit limit
    big = ["1/" * 900 + "a",
           "(a^" + "7" * 3000 + ")^" + "3" * 3000,
           "*".join(["a"] * 3000)]
    lines = [req(service="derivation", exercise="powerExercise", state=wire(e))
             for e in big]
    lines.append(req(service="ready", exercise="powerExercise", state=wire("a^14")))
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out)
    answers = out.getvalue().splitlines()
    assert [error_code(a) for a in answers[:3]] == ["budget-exceeded"] * 3
    assert json.loads(answers[0])["error"]["message"] == "term nested too deeply"
    assert answers[3] == '{"ok":{"ready":true}}'


def test_serve_uses_a_custom_registry():
    registry = Registry([dataclasses.replace(EX, code="justPowers")])
    out = io.StringIO()
    serve(io.StringIO(req(service="ready", exercise="justPowers",
                          state=wire("a^14")) + "\n"), out, registry)
    assert out.getvalue() == '{"ok":{"ready":true}}\n'
