"""Shared test helpers: a tiny terminating rule alphabet and corpus builders.

The toy rules all shrink a measure (node count, then total exponent), so any
interleaving terminates and closures over them stay finite. That makes them
safe for exhaustive-state comparisons that would be unbounded with rules
that can grow terms.
"""

import random

from hypothesis import strategies as st

from strategem.navigation import (
    DOWNS,
    LEFT,
    RIGHT,
    UP,
    bottom_up,
    down_rule,
    expr_rule,
    focus_root,
    once,
    somewhere,
)
from strategem.powers import Mul, Power, Recip, Var
from strategem.strategy import (
    FAIL,
    SUCCEED,
    Check,
    Choice,
    Environment,
    Label,
    Rule,
    Seq,
    State,
    option,
    orelse,
    try_,
)
from strategem.strategy import repeat as repeat_strategy

from support import accepts_empty


def _dec(e):
    if type(e) is Power and e.exponent > 1:
        yield Power(e.base, e.exponent - 1)


def _keep_left(e):
    if type(e) is Mul:
        yield e.left


def _unwrap(e):
    if type(e) is Recip:
        yield e.arg


DEC = expr_rule("Dec", _dec)
KEEP_LEFT = expr_rule("KeepLeft", _keep_left)
UNWRAP = expr_rule("Unwrap", _unwrap)

TOY_RULES = (DEC, KEEP_LEFT, UNWRAP)


def initial(term, strategy) -> State:
    return State(Environment(), focus_root(term), strategy)


def safe_repeat(s):
    """repeat, but only for bodies that must consume a major per round.

    A repeat whose body can succeed on minor rules alone goes round on
    minor steps and never exits: the exit check fails while the body has a
    run. The engine's walk ends such a loop when it comes back to a state it
    has seen, and runs out of budget when every round makes a new state;
    random corpora steer clear of both by construction.
    """
    return repeat_strategy(s) if not accepts_empty(s) else try_(s)


# ---------------------------------------------------------------------------
# seeded corpus builders (plain random, reproducible across runs)

def random_toy_term(rng: random.Random, max_depth: int = 3):
    if max_depth <= 1:
        return Var(rng.choice("ab"))
    roll = rng.random()
    if roll < 0.35:
        return Var(rng.choice("ab"))
    if roll < 0.60:
        return Power(random_toy_term(rng, max_depth - 1), rng.randint(2, 4))
    if roll < 0.85:
        return Mul(random_toy_term(rng, max_depth - 1),
                   random_toy_term(rng, max_depth - 1))
    return Recip(random_toy_term(rng, max_depth - 1))


TOY_LEAVES = (Rule(DEC), Rule(KEEP_LEFT), Rule(UNWRAP),
              Rule(DEC), Rule(KEEP_LEFT), Rule(UNWRAP),
              SUCCEED, FAIL)

# raw navigation atoms, for strategies that move the focus on their own
NAV_ATOMS = (Rule(UP), Rule(LEFT), Rule(RIGHT), Rule(DOWNS),
             Rule(down_rule(0)), Rule(down_rule(1)))


def random_toy_strategy(rng: random.Random, depth: int = 5, leaves: tuple = TOY_LEAVES):
    if depth <= 1:
        return rng.choice(leaves)
    build = rng.randrange(10)
    if build <= 1:
        return random_toy_strategy(rng, 1, leaves)
    sub = lambda: random_toy_strategy(rng, depth - 1, leaves)  # noqa: E731
    if build == 2:
        return Seq(sub(), sub())
    if build == 3:
        return Choice(sub(), sub())
    if build == 4:
        return orelse(sub(), sub())
    if build == 5:
        return Check(sub())
    if build == 6:
        return Label("l%d" % rng.randrange(3), sub())
    if build == 7:
        return rng.choice([try_, option])(sub())
    if build == 8:
        return rng.choice([once, somewhere, bottom_up])(sub())
    return safe_repeat(sub())


# ---------------------------------------------------------------------------
# hypothesis strategies over the same vocabulary

def toy_terms():
    leaves = st.sampled_from([Var("a"), Var("b")])

    def extend(children):
        return st.one_of(
            st.tuples(children, st.integers(2, 4)).map(lambda t: Power(*t)),
            st.tuples(children, children).map(lambda t: Mul(*t)),
            children.map(Recip),
        )

    return st.recursive(leaves, extend, max_leaves=4)


def toy_strategies(extra_leaves: tuple = ()):
    leaves = st.sampled_from([Rule(DEC), Rule(KEEP_LEFT), Rule(UNWRAP),
                              SUCCEED, FAIL, *extra_leaves])

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda t: Seq(*t)),
            pair.map(lambda t: Choice(*t)),
            pair.map(lambda t: orelse(*t)),
            children.map(Check),
            children.map(try_),
            children.map(option),
            children.map(lambda s: Label("l", s)),
            children.map(once),
            children.map(somewhere),
            children.map(bottom_up),
            children.map(safe_repeat),
        )

    return st.recursive(leaves, extend, max_leaves=5)
