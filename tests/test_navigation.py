"""Zipper movement, positional editing, and the traversal combinators."""

import pytest
from hypothesis import given, settings

from strategem.navigation import (
    DOWNS,
    LEFT,
    RIGHT,
    UP,
    NavigationError,
    apply_at,
    bottom_up,
    down_env_rule,
    down_rule,
    focus_at,
    focus_root,
    once,
    positions,
    replace_at,
    somewhere,
    term_at,
    top_down,
    unfocus,
)
from strategem.powers import ADD_EXP, DIST_EXP, MUL_EXP, Var, parse, print_expr
from strategem.strategy import Environment, Rule, big_step, choice

from conftest import initial, toy_terms
from support import run

A = Rule(ADD_EXP)
M = Rule(MUL_EXP)
D = Rule(DIST_EXP)

NESTED = parse("(a^3*a^4)^2")


# ---------------------------------------------------------------------------
# zipper movement

def test_down_and_up_restore_the_term():
    z = focus_root(NESTED)
    inner = z.down(0)
    assert inner.focus == parse("a^3*a^4")
    assert inner.path == (0,)
    assert inner.up() == z


def test_down_out_of_range():
    z = focus_root(parse("a"))
    with pytest.raises(NavigationError):
        z.down(0)
    with pytest.raises(NavigationError):
        focus_root(NESTED).down(1)  # Power has one child


def test_up_at_root():
    with pytest.raises(NavigationError):
        focus_root(NESTED).up()


def test_sibling_moves():
    z = focus_root(parse("a^3*a^4")).down(0)
    r = z.right()
    assert r.focus == parse("a^4")
    assert r.path == (1,)
    assert r.left().focus == parse("a^3")
    with pytest.raises(NavigationError):
        z.left()
    with pytest.raises(NavigationError):
        r.right()


def test_sibling_reroots_through_the_edited_parent():
    z = focus_root(parse("a^3*a^4")).down(0).with_focus(parse("b^9"))
    moved = z.right()
    assert unfocus(moved) == parse("b^9*a^4")


def test_focus_at_counts_from_the_root():
    z = focus_root(NESTED).down(0).down(1)
    again = focus_at(z, (0, 0))
    assert again.focus == parse("a^3")
    assert unfocus(again) == NESTED
    assert focus_at(z, ()).focus == NESTED


# ---------------------------------------------------------------------------
# positional views of plain terms

def test_positions_preorder():
    assert positions(NESTED) == ((), (0,), (0, 0), (0, 0, 0), (0, 1), (0, 1, 0))
    assert positions(Var("a")) == ((),)


def test_term_at_and_replace_at():
    assert term_at(NESTED, (0, 1)) == parse("a^4")
    assert term_at(NESTED, ()) == NESTED
    edited = replace_at(NESTED, (0, 1), parse("b^2"))
    assert print_expr(edited) == "(a^3*b^2)^2"
    assert replace_at(NESTED, (), Var("q")) == Var("q")
    with pytest.raises(NavigationError):
        term_at(NESTED, (2,))
    with pytest.raises(NavigationError):
        replace_at(NESTED, (0, 5), Var("q"))


# ---------------------------------------------------------------------------
# navigation rules as transitions

def move_targets(rule, term, path=()):
    z = focus_at(focus_root(term), path)
    return [z2.path for _, z2 in rule.transform(Environment(), z)]


def test_downs_offers_every_child():
    assert move_targets(DOWNS, NESTED) == [(0,)]
    assert move_targets(DOWNS, parse("a^3*a^4")) == [(0,), (1,)]
    assert move_targets(DOWNS, parse("a")) == []


def test_up_left_right_respect_the_boundary():
    assert move_targets(UP, NESTED, (0,)) == [()]
    assert move_targets(UP, NESTED) == []
    assert move_targets(LEFT, parse("a*b"), (1,)) == [(0,)]
    assert move_targets(LEFT, parse("a*b"), (0,)) == []
    assert move_targets(RIGHT, parse("a*b"), (0,)) == [(1,)]
    assert move_targets(RIGHT, parse("a*b"), (1,)) == []


def test_down_rule_selects_one_child():
    assert move_targets(down_rule(1), parse("a*b")) == [(1,)]
    assert move_targets(down_rule(1), parse("a^2")) == []
    assert down_rule(1).term_name == "Down(1)"
    assert down_rule(1).name == "Down"


def test_down_env_rule_reads_the_environment():
    rule = down_env_rule("slot")
    env = Environment().bind("slot", "1")
    z = focus_root(parse("a*b"))
    assert [z2.path for _, z2 in rule.transform(env, z)] == [(1,)]
    assert rule.transform(Environment(), z) == ()
    assert rule.transform(Environment().bind("slot", "no"), z) == ()
    assert rule.transform(Environment().bind("slot", "7"), z) == ()


# ---------------------------------------------------------------------------
# traversal combinators

def ends_of(term, strategy):
    return sorted(print_expr(unfocus(e.focus)) for e in run(initial(term, strategy)))


def test_once_applies_at_exactly_one_child():
    assert ends_of(parse("(a^3)^2*b"), once(M)) == ["a^6*b"]
    # the redex at the root is out of reach for once
    assert ends_of(parse("a^3*a^4"), once(A)) == []
    assert ends_of(parse("a"), once(A)) == []


def test_somewhere_matches_rule_results_at_every_position():
    term = parse("(a^2)^3*(b^2)^4")
    expected = set()
    for path in positions(term):
        for out in apply_at(MUL_EXP, term, path):
            expected.add(print_expr(out))
    assert set(ends_of(term, somewhere(M))) == expected
    assert expected == {"a^6*(b^2)^4", "(a^2)^3*b^8"}


def test_somewhere_includes_the_root():
    assert ends_of(parse("a^3*a^4"), somewhere(A)) == ["a^7"]


def test_bottom_up_prefers_the_deepest_redex():
    # the inner product is rewritten before the outer power
    term = parse("(a^3*a^4)^2")
    firsts = {r.name for r, _ in big_step(initial(term, bottom_up(choice(A, M, D))))}
    assert firsts == {"AddExp"}


def test_top_down_prefers_the_shallowest_redex():
    term = parse("(a^3*a^4)^2")
    firsts = {r.name for r, _ in big_step(initial(term, top_down(choice(A, M, D))))}
    assert firsts == {"DistExp"}


def test_apply_at():
    term = parse("(a^3)^2*(a^4)^2")
    outs = apply_at(MUL_EXP, term, (1,))
    assert [print_expr(t) for t in outs] == ["(a^3)^2*a^8"]
    assert apply_at(MUL_EXP, term, ()) == ()
    with pytest.raises(ValueError):
        apply_at(UP, term, ())  # navigation rules have no positional form


# ---------------------------------------------------------------------------
# corpus laws

@settings(max_examples=100, deadline=None)
@given(toy_terms())
def test_unfocus_is_stable_under_movement(term):
    z = focus_root(term)
    for path in positions(term):
        assert unfocus(focus_at(z, path)) == term


@settings(max_examples=100, deadline=None)
@given(toy_terms())
def test_down_then_up_is_identity(term):
    for path in positions(term):
        z = focus_at(focus_root(term), path)
        for i in range(len(z.focus.children())):
            assert z.down(i).up() == z


@settings(max_examples=100, deadline=None)
@given(toy_terms())
def test_focus_agrees_with_term_at(term):
    for path in positions(term):
        assert focus_at(focus_root(term), path).focus == term_at(term, path)


@settings(max_examples=100, deadline=None)
@given(toy_terms())
def test_right_then_left_returns(term):
    for path in positions(term):
        z = focus_at(focus_root(term), path)
        if path and path[-1] + 1 < len(z.up().focus.children()):
            assert z.right().left() == z
