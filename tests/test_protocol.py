"""Wire protocol: strategy term syntax, state serialization, JSON-lines server."""

import copy
import dataclasses
import gc
import io
import json
import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategem import protocol, services, strategy
from strategem.exercise import Registry, default_registry, power_exercise
from strategem.navigation import (
    DOWNS,
    LEFT,
    RIGHT,
    UP,
    down_env_rule,
    down_rule,
    positions,
    unfocus,
)
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
from strategem.services import RuleNotApplicableError, initial_state
from strategem.strategy import (
    FAIL,
    SUCCEED,
    Budget,
    BudgetExceededError,
    Check,
    Choice,
    Label,
    Rec,
    Rule,
    Seq,
    Var,
    enter_rule,
    leave_rule,
    with_step_budget,
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


def test_decode_faults_answer_fixed_parse_errors():
    # the same bytes on every Python version: the interpreter's recursion and
    # int-digit limits never reach the wire
    generate = '{"service":"generate","exercise":"powerExercise","seed":%s}'
    lines = ["[" * 100000, generate % ("9" * 5000), generate % ("-" + "9" * 4301), "\udcff"]
    assert [handle_request(line) for line in lines] == [
        '{"error":{"code":"parse-error","message":"bad JSON: nested too deeply"}}',
        '{"error":{"code":"parse-error","message":"bad JSON: integer longer than 4300 digits"}}',
        '{"error":{"code":"parse-error","message":"bad JSON: integer longer than 4300 digits"}}',
        '{"error":{"code":"parse-error","message":'
        '"bad JSON: Expecting value: line 1 column 1 (char 0)"}}',
    ]
    assert "ok" in json.loads(handle_request(generate % ("-" + "9" * 4300)))


def test_the_decoder_bounds_nesting_outside_strings_at_500():
    too_deep = '{"error":{"code":"parse-error","message":"bad JSON: nested too deeply"}}'
    assert handle_request("[" * 500 + "]" * 500) == (
        '{"error":{"code":"parse-error","message":"request must be an object"}}')
    assert handle_request("[" * 501 + "]" * 501) == too_deep
    assert handle_request("[" * 1500) == too_deep
    # brackets inside a string value do not nest
    assert handle_request(req(service="lint", strategy="[" * 1000)) == (
        '{"error":{"code":"parse-error",'
        '"message":"expected a rule, variable or \'(\', got \'[\'"}}')


def test_an_exception_the_failure_table_does_not_name_propagates(monkeypatch):
    def broken(exercise, state):
        raise TypeError("a bug, not an answer")

    monkeypatch.setattr(services, "ready", broken)
    with pytest.raises(TypeError, match="a bug"):
        handle_request(req(service="ready", exercise="powerExercise", state=wire("a^14")))


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
        # lint walks no strategy recursively, however wide or long
        req(service="lint", strategy=" | ".join(["Up"] * 1000)),
        req(service="lint", strategy=" | ".join(["Up"] * 3000)),
        req(service="lint", strategy=" ; ".join(["Downs"] * 3000)),
    ]
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out)
    answers = out.getvalue().splitlines()
    assert [error_code(a) for a in answers[:4]] == ["parse-error"] * 4
    assert answers[4] == '{"ok":{"ready":true}}'
    assert answers[5:] == ['{"ok":{"clean":true,"findings":[]}}'] * 3


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


def test_flat_strategies_of_any_width_get_a_real_answer():
    # interned nodes hash in O(1), so no strategy is walked recursively for
    # its hash: a 3,000-atom sequence or choice is searched like a short one
    choice_ref = {"term": " | ".join(["AddExp"] * 3000)}
    lines = [
        req(service="allfirsts", exercise="powerExercise", state=wire("a^2*a^3", ref=choice_ref)),
        req(service="allfirsts", exercise="powerExercise",
            state=wire("a^2*a^3", ref={"term": " ; ".join(["Downs"] * 3000)})),
        req(service="lint", strategy="l: (%s)" % " | ".join(["Up"] * 3000)),
    ]
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out)
    wide, long_, label = [json.loads(a) for a in out.getvalue().splitlines()]
    [candidate] = wide["ok"]["candidates"]
    assert candidate["rule"] == "AddExp" and candidate["state"]["expr"] == "a^5"
    assert long_ == {"ok": {"candidates": []}}
    assert label == {"ok": {"clean": True, "findings": []}}


def test_serve_gives_a_fixed_message_for_an_exponent_too_long_to_print():
    # MulExp makes an exponent of about 6,000 digits, past MAX_EXPONENT_DIGITS
    big = "(a^" + "7" * 3000 + ")^" + "3" * 3000
    out = io.StringIO()
    serve(io.StringIO(req(service="derivation", exercise="powerExercise",
                          state=wire(big)) + "\n"), out)
    assert out.getvalue() == ('{"error":{"code":"budget-exceeded",'
                              '"message":"exponent has too many digits to print"}}\n')


def test_serve_reports_a_check_that_depends_on_its_own_outcome():
    # the check asks whether x has a run, and every run of x starts with it
    line = req(service="allfirsts", exercise="powerExercise",
               state=wire("a^2*a^3", ref={"term": "mu x . ~x ; AddExp"}))
    out = io.StringIO()
    serve(io.StringIO(line + "\n"), out)
    assert out.getvalue() == ('{"error":{"code":"budget-exceeded","message":'
                              '"applicability check depends on its own outcome"}}\n')


def test_serve_uses_a_custom_registry():
    registry = Registry([dataclasses.replace(EX, code="justPowers")])
    out = io.StringIO()
    serve(io.StringIO(req(service="ready", exercise="justPowers",
                          state=wire("a^14")) + "\n"), out, registry)
    assert out.getvalue() == '{"ok":{"ready":true}}\n'


# ---------------------------------------------------------------------------
# the replay memo

def rewrite_location(expr, rule, result):
    """The path at which rule rewrites expr into result."""
    state = initial_state(EX, parse(expr))
    for path in positions(state.focus.focus):
        try:
            done = services.apply(EX, rule, path, state)
        except RuleNotApplicableError:
            continue
        if print_expr(unfocus(done.focus)) == result:
            return list(path)
    raise AssertionError("%s does not rewrite %s into %s" % (rule, expr, result))


def tutor_lines(difficulty, seed, ref=EXERCISE_DEFAULT_REF):
    """Request lines of one tutor session in the benchmark's request mix,
    each built from the cold answer to the line before, and those answers.
    The session's states name the strategy ref."""
    lines, answers = [], []

    def ask(**request):
        lines.append(req(exercise="powerExercise", **request))
        answers.append(handle_request(lines[-1]))
        return json.loads(answers[-1]).get("ok")

    generated = ask(service="generate", difficulty=difficulty, seed=seed)["state"]
    start = state = dict(generated, strategyRef=ref)
    while not ask(service="ready", state=state)["ready"]:
        ask(service="stepsremaining", state=state)
        ask(service="allfirsts", state=state)
        hint = ask(service="onefirst", state=state)
        for text in (hint["state"]["expr"], "z*" + state["expr"]):
            ask(service="diagnose", state=state, expression=text)
        location = rewrite_location(state["expr"], hint["rule"], hint["state"]["expr"])
        ask(service="applicable", state=state, location=location)
        state = ask(service="apply", state=state, rule=hint["rule"], location=location)["state"]
    ask(service="derivation", state=start)
    return lines, answers


def test_serve_through_one_memo_answers_like_cold_requests():
    lines, cold = [], []
    for difficulty in ("easy", "medium", "hard"):
        for seed in range(15):
            more_lines, more_answers = tutor_lines(difficulty, seed)
            lines += more_lines
            cold += more_answers
    registry = default_registry()
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out, registry)
    assert out.getvalue().splitlines() == cold
    assert registry.replays  # the memo was used


def session_wires(expr):
    """The wire states a run of onefirst hints walks through from expr."""
    wires = [wire(expr)]
    while True:
        hint = json.loads(handle_request(req(service="onefirst", exercise="powerExercise",
                                             state=wires[-1]))).get("ok")
        if hint is None:
            return wires
        wires.append(hint["state"])


HARD = "(a^7)^4*a^5*a^3"  # replays MulExp, AddExp, AddExp


def replay(wire_, budget, memo=None):
    state = deserialize_state(wire_, EX, budget, memo)[0]
    return state, budget.used, list(budget.check_cache.items())


def test_cold_and_warm_replays_leave_the_same_budget():
    memo = OrderedDict()
    wires = session_wires(HARD)[1:]
    # the trace leaves the strategy at ReciExp, and so does every extension
    off = [dict(wires[0], trace=wires[0]["trace"] + tail)
           for tail in (["ReciExp"], ["ReciExp", "AddExp"])]
    for w in wires + off:
        cold = replay(w, Budget())
        assert cold[2]  # the replay leaves check outcomes behind
        assert replay(w, Budget(), memo) == cold  # extends the memoised prefix
        assert replay(w, Budget(), memo) == cold  # a hit on the whole trace
    assert len(memo) == len(wires) + 1  # a stopped prefix answers its extensions

    # a budget that already holds check outcomes replays cold
    def primed():
        budget = Budget()
        budget.check_cache.update(replay(wires[-1], Budget())[2])
        return budget

    assert replay(wires[-1], primed(), memo) == replay(wires[-1], primed())


def test_prefixes_with_equal_running_hashes_are_told_apart(monkeypatch):
    monkeypatch.setattr(protocol, "hash", lambda value: 0, raising=False)
    on, off = session_wires(HARD)[1], wire(HARD, trace=["ReciExp"])
    memo = OrderedDict()
    for w in (on, off):
        assert replay(w, Budget(), memo) == replay(w, Budget())
    # both keys are equal, so the later entry took the earlier one's place
    assert [entry[0] for entry in memo.values()] == [("ReciExp",)]


def test_a_replay_out_of_budget_answers_the_same_cold_and_warm():
    *_, prefix, full = session_wires(HARD)
    limit = (replay(prefix, Budget())[1] + replay(full, Budget())[1]) // 2
    memo = OrderedDict()
    replay(prefix, Budget(), memo)
    replay(prefix, Budget(limit), memo)
    # out of budget past a memoised prefix, and short of one memoised under
    # a larger budget
    for w, budget_limit in ((full, limit), (prefix, limit // 2)):
        with pytest.raises(BudgetExceededError) as cold:
            replay(w, Budget(budget_limit))
        with pytest.raises(BudgetExceededError) as warm:
            replay(w, Budget(budget_limit), memo)
        assert (str(warm.value), warm.value.used) == (str(cold.value), cold.value.used)
    assert len(memo) == 2

    line = req(service="stepsremaining", exercise="powerExercise", state=full)
    registry = default_registry()
    with with_step_budget(limit):
        handle_request(req(service="ready", exercise="powerExercise", state=prefix), registry)
        assert handle_request(line, registry) == handle_request(line)
    assert len(registry.replays) == 1


def test_a_stored_prefix_ends_where_the_trace_left_the_strategy():
    registry = default_registry()
    lines = [req(service="ready", exercise="powerExercise",
                 state=wire("a^14", start=HARD, trace=["MulExp", "ReciExp"] + [name] * 20000))
             for name in ("AddExp", "MulExp")]
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out, registry)
    assert out.getvalue().splitlines() == [handle_request(line) for line in lines]
    [(stored, _, stopped, _, _)] = registry.replays.values()
    assert (stored, stopped) == (("MulExp", "ReciExp"), True)


def test_the_memo_keeps_at_most_its_size(monkeypatch):
    monkeypatch.setattr(protocol, "REPLAY_MEMO_SIZE", 3)
    registry = default_registry()
    lines = [req(service="ready", exercise="powerExercise", state=w)
             for expr in (HARD, "(a^3*a^4)^2", "a^6*a^3*a^8") for w in session_wires(expr)]
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out, registry)
    assert out.getvalue().splitlines() == [handle_request(line) for line in lines]
    # seven distinct non-empty traces; empty ones are never stored
    assert len(registry.replays) == 3
    assert all(entry[0] for entry in registry.replays.values())


def test_the_replay_memo_of_a_tutor_session_stays_small():
    # five hard sessions, each on its own strategy text
    text = print_term(EX.strategy)
    lines, cold = [], []
    for seed in range(5):
        ref = {"term": text.replace("powers:", "s%d:" % seed)}
        more_lines, more_answers = tutor_lines("hard", seed, ref)
        lines += more_lines
        cold += more_answers
    registry = default_registry()
    out = io.StringIO()
    tracemalloc.start()
    try:
        serve(io.StringIO("\n".join(lines) + "\n"), out, registry)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        entries = len(registry.replays)
        registry.replays.clear()
        gc.collect()
        size = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.getvalue().splitlines() == cold
    assert 0 < entries <= protocol.REPLAY_MEMO_SIZE
    # about 4 KB an entry; a full memo then holds a few MB at most
    assert size < entries * 16 * 2**10


# ---------------------------------------------------------------------------
# the registry's strategy memo

T = print_term(EX.strategy)


def serve_and_cold_costs(lines, registry, monkeypatch):
    """(serve's lines, cold lines, the budgets' used counts of each run), where
    serve answers through registry and each cold line gets a new one."""
    budgets = []

    class Recorded(Budget):
        def __init__(self, limit=None):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(protocol, "Budget", Recorded)
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out, registry)
    warm_used = [b.used for b in budgets]
    budgets.clear()
    cold = [handle_request(line) for line in lines]
    return out.getvalue().splitlines(), cold, warm_used, [b.used for b in budgets]


def on(text, *services_, expr="(a^2*a^3)^2"):
    return [req(service=service, exercise="powerExercise", state=wire(expr, ref={"term": text}))
            for service in services_]


TEXTS = ["s%d: %s" % (i, T) for i in range(3)]


@pytest.mark.parametrize("lines, stored, size", [
    (on(T, "allfirsts") * 2, [T], None),
    ([req(service="lint", strategy=T)] + on(T, "allfirsts", "derivation"), [T], None),
    (on("mu x . (AddExp", "allfirsts") * 2, [], None),
    (on("mu x . x ; AddExp", "derivation") * 2, ["mu x . x ; AddExp"], None),
    ([line for i in (0, 1, 2, 0, 2, 1) for line in on(TEXTS[i], "allfirsts", "ready")],
     [TEXTS[2], TEXTS[1]], 2),
], ids=["same-text-twice", "lint-then-services", "parse-error-twice", "left-recursive-twice",
        "eviction"])
def test_the_strategy_memo_changes_no_answer_and_no_cost(lines, stored, size, monkeypatch):
    if size is not None:
        monkeypatch.setattr(protocol, "TERM_MEMO_SIZE", size)
    registry = default_registry()
    warm, cold, warm_used, cold_used = serve_and_cold_costs(lines, registry, monkeypatch)
    assert warm == cold
    assert warm_used == cold_used
    # least recent last out; a text that fails to parse is not stored
    assert list(registry.terms) == stored


def test_requests_on_one_text_share_one_tree_and_its_splits():
    # a label of its own: T alone parses to the exercise's own strategy,
    # which earlier tests have split
    text = "share: " + T
    registry = default_registry()
    handle_request(req(service="lint", strategy=text), registry)
    [tree] = registry.terms.values()
    assert tree not in strategy._split_cache
    for line in on(text, "allfirsts", "derivation"):
        handle_request(line, registry)
    assert list(registry.terms.values()) == [tree] and tree in strategy._split_cache


def test_memory_stays_bounded_over_distinct_strategies():
    # every request names a new strategy text; serve keeps the registry's
    # last TERM_MEMO_SIZE trees of them, with the facts kept on their nodes
    registry = default_registry()

    def line(label):
        text = "%s: mu x . (Downs ; x ; Up | ~(Downs ; x ; Up) ; AddExp)" % label
        return on(text, "allfirsts", expr="a^2*a^3")[0]

    for i in range(40):
        handle_request(line("w%d" % i), registry)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(400):
            assert "ok" in json.loads(handle_request(line("s%d" % i), registry))
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # about 0.4 MB; a memo that kept every strategy grew about 4 MB
    assert growth < 2 * 2**20


def test_serve_reads_stdin_as_utf8_whatever_the_locale(monkeypatch):
    raw = b"\xff\n" + '{"service":"\u00e9"}\n'.encode() + \
        req(service="ready", exercise="powerExercise", state=wire("a^14")).encode() + b"\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="ascii"))
    out = io.StringIO()
    serve(stdout=out)
    assert out.getvalue().splitlines() == [
        '{"error":{"code":"parse-error","message":'
        '"bad JSON: Expecting value: line 1 column 1 (char 0)"}}',
        '{"error":{"code":"unknown-service","message":"no service named \'\\u00e9\'"}}',
        '{"ok":{"ready":true}}',
    ]


# ---------------------------------------------------------------------------
# fuzz: every non-blank line gets exactly one well-formed answer

ERROR_CODES = {"parse-error", "unknown-service", "unknown-code", "invalid-location",
               "rule-not-applicable", "budget-exceeded", "no-step-available"}

VALID_REQUESTS = [
    {"service": "generate", "exercise": "powerExercise", "difficulty": "easy", "seed": 3},
    {"service": "allfirsts", "exercise": "powerExercise", "state": wire("a^2*a^3")},
    {"service": "onefirst", "exercise": "powerExercise",
     "state": wire("(a^7)^2", start="(a^3*a^4)^2", trace=["AddExp"])},
    {"service": "apply", "exercise": "powerExercise", "rule": "AddExp", "location": [0],
     "state": wire("(a^3*a^4)^2")},
    {"service": "diagnose", "exercise": "powerExercise", "expression": "(a^7)^2",
     "state": wire("(a^3*a^4)^2", ref={"term": "mu x . (AddExp | MulExp) ; x | succeed"})},
    {"service": "lint", "strategy": "mu x . Downs ; x | AddExp"},
]

LINE_TEXT = st.text(alphabet=st.characters(exclude_characters="\n"), max_size=40)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | LINE_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(LINE_TEXT, inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_requests(draw):
    request = copy.deepcopy(draw(st.sampled_from(VALID_REQUESTS)))
    target = request["state"] if "state" in request and draw(st.booleans()) else request
    key = draw(st.sampled_from(sorted(target) + ["extra"]))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(JSON_VALUES)
    line = json.dumps(request)
    if draw(st.booleans()):
        start = draw(st.integers(0, len(line)))
        end = start + draw(st.integers(0, 3))
        line = line[:start] + draw(LINE_TEXT) + line[end:]
    return line


@settings(max_examples=120, deadline=None)
@given(st.lists(LINE_TEXT | mutated_requests(), max_size=4))
@example(["[" * 100000])
@example(['{"service":"generate","exercise":"powerExercise","seed":%s}' % ("9" * 5000)])
@example(["\udcff"])
def test_serve_answers_every_line_once(lines):
    out = io.StringIO()
    serve(io.StringIO("".join(line + "\n" for line in lines)), out)
    answers = out.getvalue().splitlines()
    assert len(answers) == sum(1 for line in lines if line.strip())
    for answer in answers:
        body = json.loads(answer)
        assert list(body) in (["ok"], ["error"])
        if "error" in body:
            assert sorted(body["error"]) == ["code", "message"]
            assert body["error"]["code"] in ERROR_CODES
            assert isinstance(body["error"]["message"], str)
