"""Static strategy checks and the budget knobs they rely on."""

import random
import sys

import pytest

from strategem.exercise import write_as_power_of
from strategem.lint import (
    FACTOR_MAX_UNROLL,
    MODES,
    LintFinding,
    detect_left_factors,
    detect_left_recursion,
    lint_strategy,
)
from strategem.navigation import DOWNS, UP, down_rule
from strategem.powers import ADD_EXP, DIST_EXP, MUL_EXP, parse
from strategem.protocol import parse_term
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
    default_budget_limit,
    seq,
    with_step_budget,
)

from conftest import initial
from support import bounded_left_factors, bounded_left_recursion, language_upto, majors_of, run

A = Rule(ADD_EXP)
M = Rule(MUL_EXP)
D = Rule(DIST_EXP)

LOOPING = Rec("x", Seq(Var("x"), A))
GUARDED_LOOP = Rec("x", seq(Rule(down_rule(0)), Var("x"), A))
SHARED_PREFIX = Choice(Label("l1", Seq(A, M)), Label("l2", Seq(A, D)))
FACTORED = Seq(A, Choice(M, D))


def kinds(findings):
    return [f.kind for f in findings]


# ---------------------------------------------------------------------------
# left recursion

def test_naked_left_recursion_is_flagged_in_both_modes():
    for mode in MODES:
        findings = detect_left_recursion(LOOPING, mode)
        assert kinds(findings) == ["LeftRecursion"]
        assert findings[0].path == ()
        assert "'x'" in findings[0].detail
        assert findings[0].certainty == "definite"


def test_navigation_guarded_recursion_depends_on_the_mode():
    # Down into child 0 only moves the focus; the transparent reading does
    # not count that as consumption, the opaque reading does
    assert kinds(detect_left_recursion(GUARDED_LOOP, "transparent")) == ["LeftRecursion"]
    assert detect_left_recursion(GUARDED_LOOP, "opaque") == ()


def test_the_power_strategy_is_clean_in_both_modes():
    for mode in MODES:
        assert lint_strategy(write_as_power_of(), mode).clean


def test_right_recursion_is_not_left_recursion():
    ok = Rec("x", Seq(A, Var("x")))
    for mode in MODES:
        assert detect_left_recursion(ok, mode) == ()


def test_check_guards_do_not_hide_recursion_in_transparent_mode():
    guarded = Rec("x", Seq(Check(A), Seq(Var("x"), M)))
    assert kinds(detect_left_recursion(guarded, "transparent")) == ["LeftRecursion"]
    assert detect_left_recursion(guarded, "opaque") == ()


def test_nested_binders_are_reported_at_their_own_paths():
    inner = Rec("y", Seq(Var("y"), M))
    outer = Rec("x", Seq(A, Choice(Var("x"), inner)))
    findings = detect_left_recursion(outer, "transparent")
    assert [(f.path, f.kind) for f in findings] == [((0, 1, 1), "LeftRecursion")]


def test_shadowed_variables_do_not_count():
    shadowed = Rec("x", Seq(Rec("x", Seq(A, Var("x"))), Var("x")))
    assert detect_left_recursion(shadowed, "opaque") == ()


def test_mode_is_validated():
    with pytest.raises(ValueError):
        detect_left_recursion(LOOPING, "lenient")
    with pytest.raises(ValueError):
        lint_strategy(LOOPING, "lenient")


# ---------------------------------------------------------------------------
# left factors

def test_shared_first_rule_across_labeled_branches():
    findings = detect_left_factors(SHARED_PREFIX)
    assert [(f.path, f.kind, f.certainty) for f in findings] == [
        ((), "LeftFactor", "definite"),
    ]
    assert "AddExp" in findings[0].detail


def test_factored_form_is_clean_and_equivalent():
    assert detect_left_factors(FACTORED) == ()
    # same bounded language up to the bracketing, so the rewrite is safe
    before = {majors_of(s) for s in language_upto(SHARED_PREFIX, max_len=4)}
    after = {majors_of(s) for s in language_upto(FACTORED, max_len=4)}
    assert before == after == {("AddExp", "MulExp"), ("AddExp", "DistExp")}


def test_minor_rules_pass_through_first_sets():
    skewed = Choice(Seq(Rule(UP), Seq(A, M)), Seq(A, D))
    findings = detect_left_factors(skewed)
    assert kinds(findings) == ["LeftFactor"]
    assert "AddExp" in findings[0].detail


def test_checks_block_their_branch():
    # orelse-style guarded choice shares AddExp syntactically, but the
    # checked branch only runs when the first one fails
    guarded = Choice(Seq(A, M), Seq(Check(Seq(A, M)), Seq(A, D)))
    assert detect_left_factors(guarded) == ()


def test_distinct_firsts_are_clean():
    assert detect_left_factors(Choice(A, M)) == ()
    assert lint_strategy(Choice(A, M)).clean


def test_truncated_first_sets_report_possible_findings():
    diver = Rec("x", Seq(Rule(DOWNS), Var("x")))
    maybe = Choice(diver, A)
    findings = detect_left_factors(maybe)
    assert [(f.kind, f.certainty) for f in findings] == [("LeftFactor", "possible")]
    assert str(FACTOR_MAX_UNROLL) in findings[0].detail
    # no recursion finding: descending always makes structural progress
    for mode in MODES:
        assert detect_left_recursion(maybe, mode) == ()


def test_left_recursive_loops_also_left_factor_against_their_own_body():
    tangle = Choice(Rec("x", Choice(Var("x"), M)), A)
    recursion = detect_left_recursion(tangle, "opaque")
    assert [(f.path, f.kind) for f in recursion] == [((0,), "LeftRecursion")]
    factor_kinds = {(f.path, f.certainty) for f in detect_left_factors(tangle)}
    # the inner choice definitely races MulExp against itself
    assert ((0, 0), "definite") in factor_kinds


def test_lint_strategy_combines_and_sorts():
    messy = Choice(SHARED_PREFIX, LOOPING)
    report = lint_strategy(messy, "opaque")
    assert not report.clean
    # the looping branch truncates the outer first-set comparison, so the
    # root gets a possible finding on top of the two definite ones
    assert [(f.path, f.kind, f.certainty) for f in report.findings] == [
        ((), "LeftFactor", "possible"),
        ((0,), "LeftFactor", "definite"),
        ((1,), "LeftRecursion", "definite"),
    ]
    assert all(isinstance(f, LintFinding) for f in report.findings)


def test_variables_refer_to_their_lexical_binder():
    # the inner binder reuses an outer name; the variable between them
    # still means the outer binder, as unrolling (strategy._substitute) does
    cases = {
        "mu y . MulExp | (mu x . (y | (mu y . (x | AddExp))))":
            ("definite", "both branches can start with AddExp, MulExp"),
        "mu x . (MulExp | (mu y . (x | (mu x . (y | AddExp)))))":
            ("definite", "both branches can start with AddExp, MulExp"),
        "mu y . MulExp | (mu x . (y | (mu y . x)))":
            ("definite", "both branches can start with MulExp"),
    }
    for text, (certainty, detail) in cases.items():
        found = {f.path: (f.certainty, f.detail) for f in detect_left_factors(parse_term(text))}
        assert found[(0, 1, 0)] == (certainty, detail), text


def nested_binders(m):
    """(mu x1 . (x1 | (mu x2 . (x1 | x2 | ... (mu xm . (x1 | ... | xm | AddExp))))))"""
    text = "AddExp"
    for j in range(m, 0, -1):
        text = "(mu x%d . (%s | %s))" % (j, " | ".join("x%d" % k for k in range(1, j + 1)), text)
    return text


LEAVES = (A, M, D, Rule(UP), Rule(DOWNS), Rule(down_rule(0)), SUCCEED, FAIL)


def random_strategy(rng, size, scope=()):
    # about size nodes; a variable names an enclosing binder or none ("z"),
    # and no binder reuses a name in scope, so scoping cannot matter
    if size <= 1:
        roll = rng.random()
        if roll < 0.3 and scope:
            return Var(rng.choice(scope))
        return Var("z") if roll < 0.35 else rng.choice(LEAVES)
    build = rng.randrange(6)
    if build < 2:
        cut = rng.randint(1, size - 1)
        return (Seq, Choice)[build](random_strategy(rng, cut, scope),
                                    random_strategy(rng, size - cut, scope))
    if build == 2:
        return Check(random_strategy(rng, size - 1, scope))
    if build == 3:
        return Label(rng.choice("lm"), random_strategy(rng, size - 1, scope))
    names = [v for v in "xyw" if v not in scope]
    if not names:
        return random_strategy(rng, size - 1, scope)
    v = rng.choice(names)
    return Rec(v, random_strategy(rng, size - 1, scope + (v,)))


def test_reports_equal_the_bounded_unrolling_oracle():
    rng = random.Random(16)
    corpus = [random_strategy(rng, rng.randint(1, 14)) for _ in range(3000)]
    corpus += [parse_term(nested_binders(m)) for m in (1, 2, 3)]
    seen = set()
    for s in corpus:
        factors = bounded_left_factors(s)
        for mode in MODES:
            expected = sorted(bounded_left_recursion(s, mode) + factors,
                              key=lambda f: (f.path, f.kind, f.detail))
            report = lint_strategy(s, mode).findings
            assert report == tuple(expected), (s, mode)
            seen.update((f.kind, f.certainty) for f in report)
    assert seen == {("LeftRecursion", "definite"), ("LeftFactor", "definite"),
                    ("LeftFactor", "possible")}


class TooManyCalls(Exception):
    pass


def test_lint_work_is_linear_in_the_text():
    for m in (4, 6, 8):
        text = nested_binders(m)
        s = parse_term(text)
        bound = 20 * len(text)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1
                if calls > bound:
                    raise TooManyCalls("m=%d: over %d Python calls" % (m, bound))

        sys.setprofile(count)
        try:
            report = lint_strategy(s)
        finally:
            sys.setprofile(None)
        assert not report.clean


# ---------------------------------------------------------------------------
# budgets

def test_budget_rejects_nonpositive_limits():
    with pytest.raises(ValueError):
        Budget(0)
    with pytest.raises(ValueError):
        Budget(-3)
    with pytest.raises(ValueError):
        with with_step_budget(0):
            pass


def test_budget_ticks_until_the_limit():
    b = Budget(2)
    b.tick()
    b.tick()
    with pytest.raises(BudgetExceededError) as info:
        b.tick()
    assert info.value.used == 3


def test_default_budget_resolution_order(monkeypatch):
    monkeypatch.delenv("STRATEGEM_BUDGET", raising=False)
    assert default_budget_limit() == 10_000
    monkeypatch.setenv("STRATEGEM_BUDGET", "123")
    assert default_budget_limit() == 123
    with with_step_budget(77):
        assert default_budget_limit() == 77  # context beats environment
    assert default_budget_limit() == 123


def test_invalid_environment_budget(monkeypatch):
    monkeypatch.setenv("STRATEGEM_BUDGET", "soon")
    with pytest.raises(ValueError):
        default_budget_limit()
    monkeypatch.setenv("STRATEGEM_BUDGET", "-5")
    with pytest.raises(ValueError):
        default_budget_limit()
    monkeypatch.setenv("STRATEGEM_BUDGET", "0")
    with pytest.raises(ValueError):
        default_budget_limit()


def test_tight_budget_interrupts_a_run(monkeypatch):
    st = initial(parse("(a^3*a^4)^2"), write_as_power_of())
    with with_step_budget(3):
        with pytest.raises(BudgetExceededError):
            run(st)
    # the same run finishes under the default budget
    assert run(st)
