"""Feedback services: hints, derivations, free application, diagnosis."""

import dataclasses
import sys

import pytest

from strategem import services
from strategem.exercise import UnknownCodeError, default_registry, power_exercise
from strategem.navigation import UP, somewhere, unfocus
from strategem.powers import (
    ADD_EXP,
    DIST_EXP,
    MUL_EXP,
    RECI_EXP,
    generate_power,
    parse,
    print_expr,
)
from strategem.services import (
    Diagnosis,
    InvalidLocationError,
    NoGeneratorError,
    NoStepAvailableError,
    RuleNotApplicableError,
    ServiceError,
    StuckError,
)
from strategem.strategy import Budget, Rule, Seq, big_step, choice, repeat, seq

EX = power_exercise()
NESTED = parse("(a^3*a^4)^2")


def start(text):
    return services.initial_state(EX, parse(text))


def shown(state):
    return print_expr(services.focused_term(state))


# ---------------------------------------------------------------------------
# plumbing

def test_initial_state():
    st = start("(a^3*a^4)^2")
    assert st.remaining is EX.strategy
    assert st.focus.path == ()
    assert services.focused_term(st) == NESTED
    assert st.env.bindings == () and st.env.label_path == ()


def test_rule_results_cover_every_position_in_preorder():
    assert services.rule_results(ADD_EXP, NESTED) == (parse("(a^7)^2"),)
    assert services.rule_results(RECI_EXP, parse("(a^3)^2")) == (
        parse("1/(a^3)^-2"),
        parse("(1/a^-3)^2"),
    )
    assert services.rule_results(MUL_EXP, parse("a*b")) == ()


# ---------------------------------------------------------------------------
# allfirsts / onefirst

def test_allfirsts_on_the_start_is_the_innermost_rewrite():
    cands = services.allfirsts(EX, start("(a^3*a^4)^2"))
    assert [(c.rule.name, shown(c.state)) for c in cands] == [("AddExp", "(a^7)^2")]


def test_allfirsts_on_a_two_branch_strategy():
    # hand-built strategy with a genuine choice: rewrite the inner product
    # first, or distribute the outer exponent and clean up afterwards
    s = choice(
        seq(somewhere(Rule(ADD_EXP)), Rule(MUL_EXP)),
        seq(Rule(DIST_EXP), repeat(Rule(MUL_EXP)), Rule(ADD_EXP)),
    )
    state = dataclasses.replace(start("(a^3*a^4)^2"), remaining=s)
    cands = services.allfirsts(EX, state)
    assert [(c.rule.name, print_expr(unfocus(c.state.focus))) for c in cands] == [
        ("AddExp", "(a^7)^2"),
        ("DistExp", "(a^3)^2*(a^4)^2"),
    ]
    # the remainders are the strategies still to run, unit absorbed
    add, dist = cands
    assert add.state.remaining == Seq(Rule(UP), Rule(MUL_EXP))
    assert dist.state.remaining == Seq(repeat(Rule(MUL_EXP)), Rule(ADD_EXP))
    assert add.state.focus.path == (0,)
    assert dist.state.focus.path == ()


def test_allfirsts_orders_equal_rules_by_path():
    cands = services.allfirsts(EX, start("(a^2*a^3)*(b^2*b^3)"))
    assert [(c.rule.name, c.state.focus.path) for c in cands] == [
        ("AddExp", (0,)),
        ("AddExp", (1,)),
    ]
    # the focus sits on the rewritten part; the full term is intact around it
    assert print_expr(cands[0].state.focus.focus) == "a^5"
    assert shown(cands[0].state) == "a^5*(b^2*b^3)"


def test_onefirst_is_the_ordering_minimum():
    s = choice(
        seq(somewhere(Rule(ADD_EXP)), Rule(MUL_EXP)),
        seq(Rule(DIST_EXP), repeat(Rule(MUL_EXP)), Rule(ADD_EXP)),
    )
    state = dataclasses.replace(start("(a^3*a^4)^2"), remaining=s)
    assert services.onefirst(EX, state).rule.name == "AddExp"
    # an exercise that prefers distribution reverses the pick
    flipped = dataclasses.replace(EX, rule_order=("DistExp", "MulExp", "AddExp"))
    assert services.onefirst(flipped, state).rule.name == "DistExp"


def test_onefirst_raises_when_nothing_applies():
    with pytest.raises(NoStepAvailableError):
        services.onefirst(EX, start("a^14"))
    assert issubclass(NoStepAvailableError, ServiceError)


# ---------------------------------------------------------------------------
# derivation and the counters built on it

def test_derivation_solves_the_running_example():
    steps = services.derivation(EX, start("(a^3*a^4)^2"))
    assert [(s.rule.name, shown(s.state)) for s in steps] == [
        ("AddExp", "(a^7)^2"),
        ("MulExp", "a^14"),
    ]
    assert services.ready(EX, steps[-1].state)


def test_derivation_steps_are_linked_big_steps():
    state = start("(a^2*a^3)^2*(b^2)^2")
    steps = services.derivation(EX, state)
    current = state
    for s in steps:
        assert (s.rule, s.state) in big_step(current)
        current = s.state
    assert services.ready(EX, current)


@pytest.mark.parametrize("term, used", [
    pytest.param(NESTED, 74, id="nested"),
    pytest.param(parse("(a*b)^2*(a*b)^3*(a*b)^4*(a*b)^5*(a*b)^6"), 731, id="k5"),
    pytest.param(generate_power("hard", 0), 143, id="hard0"),
    pytest.param(generate_power("hard", 1), 140, id="hard1"),
])
def test_derivation_transition_counts_are_pinned(term, used):
    budget = Budget()
    services.derivation(EX, services.initial_state(EX, term), budget)
    assert budget.used == used


def test_the_k16_product_derives_within_40000_transitions():
    # (a*b)^2*...*(a*b)^17: each step's checks reuse the outcomes of the
    # factors the step left untouched, which keeps 16 steps in this budget
    term = parse("*".join("(a*b)^%d" % i for i in range(2, 18)))
    budget = Budget(40_000)
    steps = services.derivation(EX, services.initial_state(EX, term), budget)
    assert len(steps) == 16 and services.ready(EX, steps[-1].state)


def test_work_per_transition_does_not_grow_with_term_depth():
    # Python calls per transition of onefirst on a^2*a^2*...: every zipper
    # move and every hash is O(1) at any depth. A product stays below the
    # depth at which the per-level recursion of the search meets Python's
    # recursion limit.
    per_transition = {}
    for factors in (25, 150):
        state = start("*".join(["a^2"] * factors))
        budget = Budget()
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            services.onefirst(EX, state, budget)
        finally:
            sys.setprofile(None)
        per_transition[factors] = calls / budget.used
    assert per_transition[150] <= 1.25 * per_transition[25], per_transition


def test_derivation_of_a_finished_term_is_empty():
    assert services.derivation(EX, start("a^14")) == []
    assert services.stepsremaining(EX, start("a^14")) == 0


def test_derivation_raises_when_the_strategy_is_stuck():
    stuck = dataclasses.replace(EX, strategy=Rule(ADD_EXP))
    state = services.initial_state(stuck, parse("a"))
    with pytest.raises(StuckError):
        services.derivation(stuck, state)


def test_stepsremaining_counts_down_under_adoption():
    state = start("(a^3*a^4)^2")
    assert services.stepsremaining(EX, state) == 2
    applied = services.apply(EX, "AddExp", (0,), state)
    adopted = services.adopt_step(EX, state, "AddExp", applied)
    assert services.stepsremaining(EX, adopted) == 1


def test_ready_checks_the_whole_term_not_the_focus():
    state = start("(a^3)^2*(a^4)^2")
    applied = services.apply(EX, "MulExp", (0,), state)
    # the focus holds a^6, which is ready on its own; the full term is not
    assert print_expr(applied.focus.focus) == "a^6"
    assert not services.ready(EX, applied)
    assert services.ready(EX, start("a^14"))


# ---------------------------------------------------------------------------
# apply and adopt_step

def test_apply_rewrites_at_the_location_and_keeps_the_strategy():
    state = start("(a^3)^2*(a^4)^2")
    applied = services.apply(EX, "MulExp", (1,), state)
    assert shown(applied) == "(a^3)^2*a^8"
    assert applied.focus.path == (1,)
    assert print_expr(applied.focus.focus) == "a^8"
    assert applied.remaining is state.remaining
    assert applied.env == state.env


def test_apply_accepts_rules_from_the_extra_rule_set():
    state = start("a^5")
    applied = services.apply(EX, "ReciExp", (), state)
    assert shown(applied) == "1/a^-5"


def test_apply_rejects_unknown_buggy_and_inapplicable_rules():
    state = start("(a^3)^2*(a^4)^2")
    with pytest.raises(RuleNotApplicableError):
        services.apply(EX, "NoSuchRule", (), state)
    with pytest.raises(RuleNotApplicableError):
        services.apply(EX, "BugAddExp", (), state)  # not playable
    with pytest.raises(RuleNotApplicableError) as info:
        services.apply(EX, "AddExp", (0,), state)
    assert info.value.rule_name == "AddExp"
    assert info.value.path == (0,)
    with pytest.raises(InvalidLocationError) as info:
        services.apply(EX, "MulExp", (0, 0, 0, 0), state)
    assert info.value.path == (0, 0, 0, 0)


def test_adopt_step_swaps_in_the_strategy_candidate():
    state = start("(a^3*a^4)^2")
    applied = services.apply(EX, "AddExp", (0,), state)
    # the raw apply result still carries the untouched strategy
    assert applied.remaining is state.remaining
    adopted = services.adopt_step(EX, state, "AddExp", applied)
    assert adopted.remaining != state.remaining
    assert print_expr(unfocus(adopted.focus)) == "(a^7)^2"
    candidates = services.allfirsts(EX, state)
    assert adopted == candidates[0].state


def test_adopt_step_leaves_off_strategy_moves_alone():
    state = start("(a^3*a^4)^2")
    applied = services.apply(EX, "ReciExp", (), state)
    adopted = services.adopt_step(EX, state, "ReciExp", applied)
    assert adopted == applied


def test_adopt_step_distinguishes_locations():
    state = start("(a^2*a^3)*(b^2*b^3)")
    applied = services.apply(EX, "AddExp", (1,), state)
    adopted = services.adopt_step(EX, state, "AddExp", applied)
    assert adopted.focus.path == (1,)
    assert print_expr(unfocus(adopted.focus)) == "a^2*a^3*b^5"
    assert unfocus(adopted.focus) == parse("(a^2*a^3)*(b^5)")
    assert adopted.remaining != state.remaining


# ---------------------------------------------------------------------------
# applicable

def test_applicable_examples():
    state = start("(a^3*a^4)^2")
    assert [r.name for r in services.applicable(EX, (), state)] == [
        "DistExp", "ReciExp",
    ]
    assert [r.name for r in services.applicable(EX, (0,), state)] == ["AddExp"]
    assert services.applicable(EX, (0, 0, 0), state) == []  # bare variable
    with pytest.raises(InvalidLocationError):
        services.applicable(EX, (3,), state)


def test_applicable_respects_the_exercise_ordering():
    state = start("(a^3*a^4)^2")
    flipped = dataclasses.replace(EX, rule_order=("ReciExp", "DistExp"))
    assert [r.name for r in services.applicable(flipped, (), state)] == [
        "ReciExp", "DistExp",
    ]


# ---------------------------------------------------------------------------
# generate

def test_generate_builds_a_deterministic_start():
    reg = default_registry()
    a = services.generate(reg, "powerExercise", "easy", 7)
    b = services.generate(reg, "powerExercise", "easy", 7)
    assert a == b
    assert EX.suitable(services.focused_term(a))
    assert a.remaining == EX.strategy


def test_generate_error_cases():
    reg = default_registry()
    with pytest.raises(UnknownCodeError):
        services.generate(reg, "fractions")
    from strategem.exercise import Registry

    bare = Registry([dataclasses.replace(EX, generator=None)])
    with pytest.raises(NoGeneratorError) as info:
        services.generate(bare, "powerExercise")
    assert info.value.code == "powerExercise"


# ---------------------------------------------------------------------------
# diagnose

def test_diagnose_not_equivalent():
    assert services.diagnose(EX, start("(a^3*a^4)^2"), parse("a^13")) == Diagnosis("NotEq")


def test_diagnose_buggy_beats_not_equivalent():
    outcome = services.diagnose(EX, start("a^3*a^4"), parse("a^12"))
    assert outcome == Diagnosis("Buggy", "BugAddExp")


def test_diagnose_similar_when_nothing_changed():
    assert services.diagnose(EX, start("a^3*a^4"), parse("a^3*a^4")) == Diagnosis("Similar")


def test_diagnose_expected_for_a_strategy_step():
    outcome = services.diagnose(EX, start("(a^3*a^4)^2"), parse("(a^7)^2"))
    assert outcome == Diagnosis("Expected", "AddExp")


def test_diagnose_detour_for_a_sound_off_strategy_rewrite():
    outcome = services.diagnose(EX, start("a^5"), parse("1/a^-5"))
    assert outcome == Diagnosis("Detour", "ReciExp")


def test_diagnose_correct_for_a_leap():
    outcome = services.diagnose(EX, start("(a^3*a^4)^2"), parse("a^14"))
    assert outcome == Diagnosis("Correct")


def test_diagnose_agrees_with_allfirsts():
    state = start("(a^2*a^3)*(b^2*b^3)")
    for cand in services.allfirsts(EX, state):
        verdict = services.diagnose(EX, state, services.focused_term(cand.state))
        assert verdict == Diagnosis("Expected", cand.rule.name)


def test_expected_diagnosis_carries_the_candidate_state():
    state = start("(a^2*a^3)*(b^2*b^3)")
    candidates = services.allfirsts(EX, state)
    assert len(candidates) > 1
    for cand in candidates:
        verdict = services.diagnose(EX, state, services.focused_term(cand.state))
        assert verdict.state == cand.state
    assert services.diagnose(EX, state, parse("a^5*b^5")).state is None
