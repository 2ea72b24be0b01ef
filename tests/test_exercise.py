"""Exercise descriptions, the registry, and self-validation."""

import dataclasses

import pytest

from strategem.exercise import (
    DuplicateCodeError,
    Registry,
    UnknownCodeError,
    default_registry,
    power_exercise,
    validate,
    write_as_power_of,
)
from strategem.powers import (
    ADD_EXP,
    BUG_ADD_EXP,
    DIST_EXP,
    MUL_EXP,
    RECI_EXP,
    parse,
)
from strategem.strategy import Label, Rec, Seq, Var, rules_of


def test_registry_lookup_and_codes():
    reg = default_registry()
    assert reg.codes() == ("powerExercise",)
    assert reg.lookup("powerExercise").code == "powerExercise"
    with pytest.raises(UnknownCodeError):
        reg.lookup("linearEquations")


def test_registry_rejects_duplicate_codes():
    reg = Registry([power_exercise()])
    with pytest.raises(DuplicateCodeError):
        reg.register(power_exercise())


def test_power_exercise_wiring():
    ex = power_exercise()
    assert ex.code == "powerExercise"
    assert ex.rule_set == (RECI_EXP,)
    assert ex.buggy_rules == (BUG_ADD_EXP,)
    assert ex.rule_order == ("AddExp", "MulExp", "DistExp", "ReciExp")
    assert ex.equivalent(parse("a^5"), parse("1/a^-5"))
    assert ex.similar(parse("a^5"), parse("a^5"))
    assert ex.suitable(parse("a^2*a^3"))
    assert ex.ready(parse("a^5"))
    assert ex.generator("easy", 3) == ex.generator("easy", 3)


def test_strategy_shape_is_labeled_and_looping():
    s = write_as_power_of()
    assert type(s) is Label and s.name == "powers"
    assert type(s.body) is Rec


def test_major_rules_order_and_dedup():
    ex = power_exercise()
    assert ex.strategy_rules() == (ADD_EXP, MUL_EXP, DIST_EXP)
    assert ex.major_rules() == (ADD_EXP, MUL_EXP, DIST_EXP, RECI_EXP)
    # navigation minors inside the traversal stay out of the major list
    assert all(not r.minor for r in ex.major_rules())
    # a rule in both the strategy and the extra set appears once
    doubled = dataclasses.replace(ex, rule_set=(ADD_EXP, RECI_EXP))
    assert doubled.major_rules() == (ADD_EXP, MUL_EXP, DIST_EXP, RECI_EXP)


def test_order_key_and_find_rule():
    ex = power_exercise()
    assert ex.order_key(ADD_EXP) == 0
    assert ex.order_key(RECI_EXP) == 3
    assert ex.order_key(BUG_ADD_EXP) == len(ex.rule_order)  # unlisted sorts last
    assert ex.find_rule("MulExp") is MUL_EXP
    assert ex.find_rule("BugAddExp") is None  # buggy rules are not playable


def test_validate_accepts_the_power_exercise():
    report = validate(power_exercise(), samples=100, seed=42)
    assert report.passed, report.failures()
    assert [e.check for e in report.entries] == [
        "strategy-left-recursion",
        "strategy-left-factors",
        "rule-ordering-total",
        "buggy-rules-disjoint",
        "generator-present",
        "generated-starts-suitable",
        "rules-preserve-equivalence",
        "buggy-rules-break-equivalence",
        "derivations-finish-ready",
    ]


def failed_checks(report):
    return {e.check for e in report.failures()}


def test_validate_flags_an_unsound_rule_set():
    ex = dataclasses.replace(power_exercise(), rule_set=(BUG_ADD_EXP, RECI_EXP),
                             rule_order=("AddExp", "MulExp", "DistExp",
                                         "ReciExp", "BugAddExp"))
    report = validate(ex, samples=30)
    assert "rules-preserve-equivalence" in failed_checks(report)


def test_validate_flags_left_recursion():
    looping = Label("powers", Rec("x", Seq(Var("x"), write_as_power_of().body)))
    ex = dataclasses.replace(power_exercise(), strategy=looping)
    report = validate(ex, samples=1)
    assert "strategy-left-recursion" in failed_checks(report)


def test_validate_flags_a_missing_generator():
    ex = dataclasses.replace(power_exercise(), generator=None)
    report = validate(ex, samples=1)
    assert "generator-present" in failed_checks(report)
    # sampling checks cannot run without one
    assert [e.check for e in report.entries][-1] == "generator-present"


def test_validate_flags_harmless_buggy_rules():
    ex = dataclasses.replace(power_exercise(), buggy_rules=(RECI_EXP,))
    report = validate(ex, samples=30)
    assert "buggy-rules-break-equivalence" in failed_checks(report)


def test_validate_flags_an_incomplete_ordering():
    ex = dataclasses.replace(power_exercise(), rule_order=("AddExp", "MulExp"))
    report = validate(ex, samples=1)
    assert "rule-ordering-total" in failed_checks(report)
    entry = [e for e in report.entries if e.check == "rule-ordering-total"][0]
    assert "DistExp" in entry.detail and "ReciExp" in entry.detail


def test_validate_flags_buggy_overlap_with_majors():
    ex = dataclasses.replace(power_exercise(), buggy_rules=(ADD_EXP,))
    report = validate(ex, samples=1)
    assert "buggy-rules-disjoint" in failed_checks(report)


def test_rules_of_strategy_includes_navigation():
    names = {r.name for r in rules_of(write_as_power_of())}
    assert {"AddExp", "MulExp", "DistExp", "Down", "Up"} <= names
