"""Power expressions: syntax, rewrite rules, normal form, generator."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategem.powers import (
    ADD_EXP,
    BUG_ADD_EXP,
    DIST_EXP,
    MAX_EXPONENT_DIGITS,
    MUL_EXP,
    POWER_RULES,
    RECI_EXP,
    Mul,
    ParseError,
    Power,
    Recip,
    Var,
    eq_power,
    generate_power,
    is_ready,
    is_suitable,
    norm_power,
    parse,
    print_expr,
    sim_power,
)

from conftest import toy_terms

A_CUBED = Power(Var("a"), 3)


def applied(rule, term):
    return [print_expr(t) for t in rule.expr_fn(term)]


# ---------------------------------------------------------------------------
# parsing

def test_parse_trees():
    assert parse("a") == Var("a")
    assert parse("x1") == Var("x1")
    assert parse("a^3") == A_CUBED
    assert parse("a^-2") == Power(Var("a"), -2)
    assert parse("a^3*a^4") == Mul(A_CUBED, Power(Var("a"), 4))
    assert parse("(a^3*a^4)^2") == Power(Mul(A_CUBED, Power(Var("a"), 4)), 2)
    assert parse("(a^3)^2") == Power(A_CUBED, 2)
    assert parse("1/a") == Recip(Var("a"))
    # the reciprocal swallows the whole following term, exponent included
    assert parse("1/a^-2") == Recip(Power(Var("a"), -2))
    assert parse("1/(a*b)") == Recip(Mul(Var("a"), Var("b")))
    assert parse("1/1/a") == Recip(Recip(Var("a")))


def test_parse_products_associate_left():
    assert parse("a*b*c") == Mul(Mul(Var("a"), Var("b")), Var("c"))
    assert parse("a*(b*c)") == Mul(Var("a"), Mul(Var("b"), Var("c")))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse("a^")
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse("(a^2")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse("a^2)")
    assert info.value.position == 3
    with pytest.raises(ParseError) as info:
        parse("*a")
    assert info.value.position == 0
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("a ^ 2")  # whitespace is not part of the syntax
    assert issubclass(ParseError, ValueError)


# ---------------------------------------------------------------------------
# printing

def test_print_minimal_parens():
    assert print_expr(parse("a^3*a^4")) == "a^3*a^4"
    assert print_expr(Power(Mul(A_CUBED, Power(Var("a"), 4)), 2)) == "(a^3*a^4)^2"
    assert print_expr(Power(A_CUBED, 2)) == "(a^3)^2"
    assert print_expr(Mul(Var("a"), Mul(Var("b"), Var("a")))) == "a*(b*a)"
    assert print_expr(Mul(Mul(Var("a"), Var("b")), Var("a"))) == "a*b*a"
    assert print_expr(Recip(Mul(Var("a"), Var("b")))) == "1/(a*b)"
    assert print_expr(Recip(Recip(Var("a")))) == "1/1/a"
    assert print_expr(Recip(Power(Var("a"), -2))) == "1/a^-2"
    assert print_expr(Power(Recip(Var("a")), 2)) == "(1/a)^2"


@settings(max_examples=200, deadline=None)
@given(toy_terms())
def test_print_then_parse_round_trips(term):
    assert parse(print_expr(term)) == term


@given(st.integers(-99, 99))
def test_exponent_round_trip(n):
    assert parse(print_expr(Power(Var("a"), n))) == Power(Var("a"), n)


def test_exponents_are_held_to_a_fixed_number_of_digits():
    # the same bound on every Python version, whatever its int-to-text limit
    longest = Power(Var("a"), -(10 ** MAX_EXPONENT_DIGITS - 1))
    assert parse(print_expr(longest)) == longest
    too_long = Power(Var("a"), 10 ** MAX_EXPONENT_DIGITS)
    for show in (print_expr, repr):
        with pytest.raises(ValueError, match="exponent has too many digits to print"):
            show(too_long)
    with pytest.raises(ParseError, match="exponent has too many digits at position 2"):
        parse("a^1" + "0" * MAX_EXPONENT_DIGITS)


# ---------------------------------------------------------------------------
# rewrite rules, one redex at a time

def test_add_exp_requires_equal_bases():
    assert applied(ADD_EXP, parse("a^3*a^4")) == ["a^7"]
    assert applied(ADD_EXP, parse("a^3*b^4")) == []
    assert applied(ADD_EXP, parse("a^3*a")) == []  # bare factor has no exponent
    assert applied(ADD_EXP, parse("a^-2*a^3")) == ["a^1"]


def test_mul_exp_flattens_nested_powers():
    assert applied(MUL_EXP, parse("(a^3)^2")) == ["a^6"]
    assert applied(MUL_EXP, parse("(a^3)^-2")) == ["a^-6"]
    assert applied(MUL_EXP, parse("a^3")) == []
    assert applied(MUL_EXP, parse("(a*b)^2")) == []


def test_dist_exp_spreads_over_products():
    assert applied(DIST_EXP, parse("(a*b)^2")) == ["a^2*b^2"]
    assert applied(DIST_EXP, parse("(a^3*a^4)^2")) == ["(a^3)^2*(a^4)^2"]
    assert applied(DIST_EXP, parse("(a^3)^2")) == []


def test_reci_exp_negates_into_a_reciprocal():
    assert applied(RECI_EXP, parse("a^-2")) == ["1/a^2"]
    assert applied(RECI_EXP, parse("a^2")) == ["1/a^-2"]
    assert applied(RECI_EXP, parse("a")) == []


def test_bug_add_exp_multiplies_exponents():
    assert applied(BUG_ADD_EXP, parse("a^3*a^4")) == ["a^12"]
    assert applied(BUG_ADD_EXP, parse("a^3*b^4")) == []
    # the bug is invisible exactly when x+y == x*y
    assert applied(BUG_ADD_EXP, parse("a^2*a^2")) == ["a^4"]
    assert applied(BUG_ADD_EXP, parse("a^1*a^1")) == ["a^1"]


def test_rule_metadata():
    for rule in POWER_RULES:
        assert not rule.minor
        assert rule.expr_fn is not None
    assert [r.name for r in POWER_RULES] == [
        "AddExp", "MulExp", "DistExp", "ReciExp", "BugAddExp",
    ]


# ---------------------------------------------------------------------------
# normal form and predicates

def test_norm_examples():
    assert norm_power(parse("(a^2*b)^2")) == parse("a^4*b^2")
    assert norm_power(parse("(a^3*a^4)^2")) == parse("a^14")
    assert norm_power(parse("a")) == parse("a")
    assert norm_power(parse("1/a^-5")) == parse("a^5")
    assert norm_power(parse("1/(a^2*b^3)")) == parse("a^-2*b^-3")
    assert norm_power(parse("1/1/a")) == parse("a")
    assert norm_power(parse("1/a")) == parse("1/a")


def test_eq_and_sim():
    assert eq_power(parse("a^5"), parse("1/a^-5"))
    assert not eq_power(parse("a^5"), parse("a^4"))
    assert sim_power(parse("a^5"), parse("a^5"))
    assert not sim_power(parse("a^5"), parse("1/a^-5"))


def test_ready_and_suitable_are_complements_here():
    assert is_ready(parse("a^14"))
    assert not is_ready(parse("(a^3*a^4)^2"))
    assert is_suitable(parse("(a^3*a^4)^2"))
    assert not is_suitable(parse("a^14"))
    assert is_ready(parse("a*b"))  # nothing to rewrite in a plain product


@settings(max_examples=200, deadline=None)
@given(toy_terms())
def test_norm_is_idempotent(term):
    n = norm_power(term)
    assert norm_power(n) == n


@settings(max_examples=200, deadline=None)
@given(toy_terms())
def test_norm_never_leaves_a_nested_reciprocal(term):
    n = norm_power(term)
    stack = [n]
    while stack:
        node = stack.pop()
        if type(node) is Recip:
            assert type(node.arg) not in (Recip, Power, Mul)
        stack.extend(node.children())


@settings(max_examples=150, deadline=None)
@given(toy_terms())
@example(parse("(a*b)^2*(a*b)^2"))  # AddExp regroups what norm_power does not
def test_sound_rules_preserve_the_normal_form(term):
    for rule in (ADD_EXP, MUL_EXP, DIST_EXP, RECI_EXP):
        for out in rule.expr_fn(term):
            assert eq_power(term, out), (rule.name, term, out)


def test_buggy_rule_changes_the_value():
    term = parse("a^3*a^4")
    (out,) = BUG_ADD_EXP.expr_fn(term)
    assert not eq_power(term, out)


# ---------------------------------------------------------------------------
# generator

def test_generate_is_deterministic_per_difficulty_and_seed():
    for difficulty in ("easy", "medium", "hard"):
        for seed in (0, 1, 17):
            a = generate_power(difficulty, seed)
            b = generate_power(difficulty, seed)
            assert a == b
    assert generate_power("easy", 0) != generate_power("easy", 1) or \
        generate_power("easy", 2) != generate_power("easy", 3)


def test_generate_rejects_unknown_difficulty():
    with pytest.raises(ValueError):
        generate_power("extreme", 0)


def test_generated_terms_are_suitable_and_bounded():
    depth_cap = {"easy": 3, "medium": 5, "hard": 7}
    for difficulty, cap in depth_cap.items():
        for seed in range(40):
            term = generate_power(difficulty, seed)
            assert is_suitable(term)
            assert not is_ready(term)
            assert _depth(term) <= cap
            names = set()
            stack = [term]
            while stack:
                node = stack.pop()
                if type(node) is Var:
                    names.add(node.name)
                if type(node) is Power:
                    assert 2 <= node.exponent <= 9
                stack.extend(node.children())
            assert len(names) <= 2


def _depth(e):
    if type(e) is Var:
        return 1
    return 1 + max(_depth(c) for c in e.children())
