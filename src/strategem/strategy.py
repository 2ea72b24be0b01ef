"""Strategy combinators and the small-step / big-step semantics they run under.

A strategy is a finite tree built from rule atoms, applicability checks,
sequence, choice, the units succeed and fail, labels, and explicit recursion
(Rec binds a variable, Var refers to it). Execution works on immutable states
(environment, focused term, remaining strategy) and is driven by splitting the
remaining strategy into a first atom and the rest.

Rules are opaque partial functions from (environment, focus) to a finite tuple
of successor pairs. An empty tuple means "not applicable". Minor rules are
administrative (navigation, label bookkeeping) and are hidden from big steps
except as prefixes and trailing completions.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterator, Optional

DEFAULT_STEP_BUDGET = 10_000

BUDGET_ENV_VAR = "STRATEGEM_BUDGET"


class StrategyError(Exception):
    """Base class for engine failures."""


class LeftRecursionError(StrategyError):
    """Splitting revisited a recursion binder without consuming an atom."""

    def __init__(self, message: str = "left-recursive strategy", var: str = None):
        super().__init__(message if var is None else "%s (binder %r)" % (message, var))
        self.var = var


class BudgetExceededError(StrategyError):
    """A step budget ran out before the computation finished."""

    def __init__(self, message: str, used: int = None, trace: tuple = ()):
        super().__init__(message)
        self.used = used
        self.trace = tuple(trace)


_budget_override: ContextVar[Optional[int]] = ContextVar("strategem_budget", default=None)


def default_budget_limit() -> int:
    """Current step budget: context override, then the environment, then 10000."""
    override = _budget_override.get()
    if override is not None:
        return override
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError("%s must be an integer, got %r" % (BUDGET_ENV_VAR, raw)) from exc
        if value <= 0:
            raise ValueError("%s must be positive, got %d" % (BUDGET_ENV_VAR, value))
        return value
    return DEFAULT_STEP_BUDGET


@contextmanager
def with_step_budget(limit: int):
    """Run a block under an explicit transition budget.

    Every transition explored by step, big_step, run and the services counts
    one unit, checks and minor rules included. Exhaustion raises
    BudgetExceededError instead of hanging.
    """
    if limit <= 0:
        raise ValueError("step budget must be positive, got %d" % limit)
    token = _budget_override.set(limit)
    try:
        yield
    finally:
        _budget_override.reset(token)


class Budget:
    """Mutable countdown shared by one service call and its nested runs.

    Checks spawn nested explorations; those share (and decrement) the same
    budget so total work stays bounded. The instance also memoizes check
    outcomes and keeps them coherent within the call.
    """

    __slots__ = ("limit", "used", "check_cache")

    def __init__(self, limit: int = None):
        self.limit = default_budget_limit() if limit is None else limit
        if self.limit <= 0:
            raise ValueError("step budget must be positive, got %d" % self.limit)
        self.used = 0
        self.check_cache: dict = {}

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                "step budget of %d transitions exceeded" % self.limit, used=self.used
            )


def cached_hash(cls):
    # Strategy trees and states get hashed constantly (visited sets, caches);
    # caching the hash in the instance dict keeps that O(1) after first use.
    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(getattr(self, name) for name in self.__dataclass_fields__))
            h = hash((cls.__name__, h))
            self.__dict__["_hash"] = h
        return h

    cls.__hash__ = __hash__
    return cls


@dataclass(frozen=True, eq=False, repr=False)
class RewriteRule:
    """A named partial transformation on (environment, focus) pairs.

    transform returns a finite tuple of (environment, focus) successors; an
    empty tuple means the rule does not apply. Identity (equality, hashing,
    ordering keys) is the key tuple, never the function object, so rules built
    twice compare equal and serialized output stays stable.
    """

    name: str
    transform: Callable[[Any, Any], tuple]
    minor: bool = False
    key: tuple = None
    term_name: str = None  # spelling in the concrete strategy syntax, if different
    progress: bool = False  # guaranteed strict descent, terminates on finite terms
    expr_fn: Callable = None  # plain term rewriter this rule was lifted from, if any
    # (need, net) zipper depths: the rule reads or moves at most need levels
    # above the focus, through the focus value's .focus subterm and context
    # frames, and leaves the focus net levels deeper. None: the rule may read
    # anything, so no strategy using it is focus-local (see depth_effect).
    depth: tuple = None

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key", (self.name,))

    def __eq__(self, other):
        return isinstance(other, RewriteRule) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.term_name or self.name


class Strategy:
    """Base class for strategy tree nodes."""

    __slots__ = ()


@cached_hash
@dataclass(frozen=True)
class Rule(Strategy):
    rule: RewriteRule


@cached_hash
@dataclass(frozen=True)
class Check(Strategy):
    """Applicability check: succeeds exactly when the inner strategy has no run."""

    inner: Strategy


@cached_hash
@dataclass(frozen=True)
class Seq(Strategy):
    left: Strategy
    right: Strategy


@cached_hash
@dataclass(frozen=True)
class Choice(Strategy):
    left: Strategy
    right: Strategy


@cached_hash
@dataclass(frozen=True)
class Succeed(Strategy):
    pass


@cached_hash
@dataclass(frozen=True)
class Fail(Strategy):
    pass


@cached_hash
@dataclass(frozen=True)
class Label(Strategy):
    name: str
    body: Strategy


@cached_hash
@dataclass(frozen=True)
class Rec(Strategy):
    """Explicit fixed point: Var(var) inside body refers back to this node."""

    var: str
    body: Strategy


@cached_hash
@dataclass(frozen=True)
class Var(Strategy):
    name: str


SUCCEED = Succeed()
FAIL = Fail()


class _Labels:
    """One cell of a label stack. Cells share their tails, so a push is O(1)
    however deep the stack, and the hash is computed once at construction."""

    __slots__ = ("top", "below", "hash")

    def __init__(self, top: str, below: Optional["_Labels"]):
        self.top = top
        self.below = below
        self.hash = hash((top, below.hash if below is not None else 0))

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        # iterative, so deep stacks compare without deep recursion
        a, b = self, other
        while a is not b:
            if (type(a) is not _Labels or type(b) is not _Labels
                    or a.hash != b.hash or a.top != b.top):
                return False
            a, b = a.below, b.below
        return True


@cached_hash
@dataclass(frozen=True, repr=False)
class Environment:
    """Finite string-to-string map plus the stack of entered labels."""

    bindings: tuple = ()  # sorted (key, value) pairs
    labels: Optional[_Labels] = None  # innermost label on top

    @property
    def label_path(self) -> tuple:
        """The entered labels, outermost first."""
        out = []
        cell = self.labels
        while cell is not None:
            out.append(cell.top)
            cell = cell.below
        return tuple(reversed(out))

    def __repr__(self):
        # state_sort_key orders states by repr, so keep the tuple form
        return "Environment(bindings=%r, label_path=%r)" % (self.bindings, self.label_path)

    def bind(self, key: str, value: str) -> "Environment":
        pairs = tuple(sorted({**dict(self.bindings), key: value}.items()))
        return Environment(pairs, self.labels)

    def get(self, key: str, default: str = None) -> Optional[str]:
        for k, v in self.bindings:
            if k == key:
                return v
        return default

    def push_label(self, name: str) -> "Environment":
        return Environment(self.bindings, _Labels(name, self.labels))

    def in_label(self, name: str) -> bool:
        """True iff name is the innermost entered label."""
        return self.labels is not None and self.labels.top == name

    def pop_label(self, name: str) -> "Environment":
        if not self.in_label(name):
            raise ValueError("label stack does not end with %r" % name)
        return Environment(self.bindings, self.labels.below)


@cached_hash
@dataclass(frozen=True)
class State:
    """One point of an exercise: environment, focused term, remaining strategy."""

    env: Environment
    focus: Any
    remaining: Strategy


def state_sort_key(state: State) -> str:
    # reprs of the frozen values are deterministic, which makes repr a usable
    # canonical ordering for materialized result sets
    return repr(state)


# ---------------------------------------------------------------------------
# combinators

def seq(*strategies: Strategy) -> Strategy:
    """Right-nested sequence of the arguments; empty gives Succeed."""
    if not strategies:
        return SUCCEED
    out = strategies[-1]
    for s in reversed(strategies[:-1]):
        out = Seq(s, out)
    return out


def choice(*strategies: Strategy) -> Strategy:
    """Right-nested choice of the arguments; empty gives Fail."""
    if not strategies:
        return FAIL
    out = strategies[-1]
    for s in reversed(strategies[:-1]):
        out = Choice(s, out)
    return out


def orelse(first: Strategy, second: Strategy) -> Strategy:
    """Left-biased choice: the second branch runs only when the first cannot."""
    return Choice(first, Seq(Check(first), second))


def option(s: Strategy) -> Strategy:
    return Choice(s, SUCCEED)


def try_(s: Strategy) -> Strategy:
    return orelse(s, SUCCEED)


def repeat(s: Strategy) -> Strategy:
    """Apply s as long as it is applicable. Uses an explicit fixed point."""
    return Rec("x", try_(Seq(s, Var("x"))))


def _substitute(node: Strategy, var: str, replacement: Strategy) -> Strategy:
    t = type(node)
    if t is Var:
        return replacement if node.name == var else node
    if t is Rec:
        if node.var == var:  # inner binder shadows
            return node
        body = _substitute(node.body, var, replacement)
        return node if body is node.body else Rec(node.var, body)
    if t is Seq or t is Choice:
        left = _substitute(node.left, var, replacement)
        right = _substitute(node.right, var, replacement)
        if left is node.left and right is node.right:
            return node
        return t(left, right)
    if t is Label:
        body = _substitute(node.body, var, replacement)
        return node if body is node.body else Label(node.name, body)
    if t is Check:
        # checks capture variables too (try/repeat put the binder inside one)
        inner = _substitute(node.inner, var, replacement)
        return node if inner is node.inner else Check(inner)
    return node


@lru_cache(maxsize=None)
def _unroll_rec(rec: Rec) -> Strategy:
    return _substitute(rec.body, rec.var, rec)


def unroll(s: Strategy) -> Strategy:
    """One unfolding of a Rec node; identity on everything else."""
    if type(s) is Rec:
        return _unroll_rec(s)
    return s


# ---------------------------------------------------------------------------
# label expansion rules and the check pseudo rule

@lru_cache(maxsize=None)
def enter_rule(label: str) -> RewriteRule:
    def transform(env, focus):
        return ((env.push_label(label), focus),)

    return RewriteRule(
        name="Enter(%s)" % label, transform=transform, minor=True, key=("Enter", label),
        depth=(0, 0),
    )


@lru_cache(maxsize=None)
def leave_rule(label: str) -> RewriteRule:
    def transform(env, focus):
        if env.in_label(label):
            return ((env.pop_label(label), focus),)
        return ()

    return RewriteRule(
        name="Leave(%s)" % label, transform=transform, minor=True, key=("Leave", label),
        depth=(0, 0),
    )


def _app_check_transform(env, focus):
    return ((env, focus),)


# Pseudo minor rule recorded in traces when an applicability check succeeds.
# It never appears inside strategy trees and never shows up in major traces.
APP_CHECK = RewriteRule(
    name="AppCheck", transform=_app_check_transform, minor=True, key=("AppCheck",)
)


# ---------------------------------------------------------------------------
# emptiness analysis
#
# One least fixed point answers "can s finish on these atoms alone?". The
# caller says which atoms are free, and a label counts as its Enter atom.
# nullable frees no atom, the test oracle accepts_empty (tests/support.py)
# frees checks and minor rules, and lint's transparent mode frees checks and
# non-progressing minor rules.

def nothing_free(atom: Strategy) -> bool:
    """Free-atom predicate of strict nullability: every atom consumes."""
    return False


@lru_cache(maxsize=None)
def passable(s: Strategy, free: Callable[[Strategy], bool], bound: frozenset) -> bool:
    """True iff the language of s has a sentence made only of atoms free accepts.

    A Rec body is evaluated once with its variable in bound, assumed
    impassable; the equation is monotone, so one pass gives the least fixed
    point. A variable outside bound raises ValueError.
    """
    t = type(s)
    if t is Succeed:
        return True
    if t is Fail:
        return False
    if t is Rule or t is Check:
        return free(s)
    if t is Label:
        return free(Rule(enter_rule(s.name))) and passable(s.body, free, bound)
    if t is Seq:
        return passable(s.left, free, bound) and passable(s.right, free, bound)
    if t is Choice:
        return passable(s.left, free, bound) or passable(s.right, free, bound)
    if t is Rec:
        return passable(s.body, free, bound | {s.var})
    if t is Var:
        if s.name in bound:
            return False
        raise ValueError("unbound strategy variable %r" % s.name)
    raise TypeError("not a strategy node: %r" % (s,))


def nullable(s: Strategy) -> bool:
    """True iff the empty sentence is in the language of s."""
    return passable(s, nothing_free, frozenset())


# ---------------------------------------------------------------------------
# check analyses
#
# Two structural passes decide how much work a check needs. Their results are
# kept on the node, as cached_hash keeps _hash. Check atoms come from closed
# strategies, so every variable seen here is bound by a Rec inside the tree;
# an unbound one raises only if a run reaches it, so these passes give it the
# same assumption as a bound one instead of raising.

def _kept_on_node(fn):
    slot = "_" + fn.__name__

    def wrapper(s):
        d = s.__dict__
        if slot not in d:
            d[slot] = fn(s)
        return d[slot]

    return wrapper


@_kept_on_node
def total(s: Strategy) -> bool:
    """True only if s has a run from every state (a sufficient test).

    Succeed is total, a sequence when both sides are, a choice when either
    branch is or when it is orelse(l, r) with r total: l runs, or ~l passes
    and r runs. A variable is not total, so a Rec is total when its body is
    without unfolding it (the least fixed point).
    """
    t = type(s)
    if t is Succeed:
        return True
    if t is Seq:
        return total(s.left) and total(s.right)
    if t is Choice:
        r = s.right
        return total(s.left) or total(r) or (
            type(r) is Seq and r.left == Check(s.left) and total(r.right))
    if t is Rec:
        return total(s.body)
    return False


@_kept_on_node
def depth_effect(s: Strategy) -> Optional[tuple]:
    """(need, net) zipper depths of every run of s, or None if unknown.

    A run reads or moves at most need levels above its entry point and ends
    net levels below it. need == 0 makes s focus-local: whether it has a run
    depends on the environment and the focused subterm only. Rules declare
    their own depths; a choice needs equal nets; a check reads what its inner
    strategy reads and does not move. A variable is assumed (0, 0), and a Rec
    keeps that assumption only when its body confirms it.
    """
    t = type(s)
    if t is Succeed or t is Fail or t is Var:
        return (0, 0)
    if t is Rule:
        return s.rule.depth
    if t is Label:
        return depth_effect(s.body)
    if t is Check:
        inner = depth_effect(s.inner)
        return None if inner is None else (inner[0], 0)
    if t is Rec:
        body = depth_effect(s.body)
        return body if body == (0, 0) else None
    left, right = depth_effect(s.left), depth_effect(s.right)
    if left is None or right is None:
        return None
    if t is Seq:
        return (max(left[0], right[0] - left[1]), left[1] + right[1])
    return (max(left[0], right[0]), left[1]) if left[1] == right[1] else None


@_kept_on_node
def check_plan(check: Check) -> tuple:
    """(strategy to run, focus-local?) for a check atom.

    ~(s ; t) passes exactly when ~s does if t is total: a run of s extends
    to a run of s ; t. So total tails are dropped before the check runs.
    """
    inner = check.inner
    while type(inner) is Seq and total(inner.right):
        inner = inner.left
    effect = depth_effect(inner)
    return inner, effect is not None and effect[0] == 0


# ---------------------------------------------------------------------------
# split

def _seq_rest(left: Strategy, right: Strategy) -> Strategy:
    # remainders absorb the unit so they match hand-written strategies
    if left is SUCCEED or left == SUCCEED:
        return right
    if right is SUCCEED or right == SUCCEED:
        return left
    return Seq(left, right)


_LEFT_RECURSIVE = object()
_split_cache: dict = {}


def split(s: Strategy) -> tuple:
    """All (atom, rest) decompositions of s.

    Atoms are Rule or Check nodes. Labels expand to their Enter atom with the
    body and the Leave rule appended to the rest. Revisiting a Rec node on one
    expansion path without consuming an atom raises LeftRecursionError; the
    outcome (including that error) is cached per strategy value.
    """
    cached = _split_cache.get(s)
    if cached is _LEFT_RECURSIVE:
        raise LeftRecursionError()
    if cached is not None:
        return cached

    out: dict = {}
    stack = [(s, SUCCEED, frozenset())]
    try:
        while stack:
            node, cont, visiting = stack.pop()
            t = type(node)
            if t is Rule or t is Check:
                out.setdefault((node, cont))
            elif t is Seq:
                # tail results (when the head is nullable) come after head results
                if nullable(node.left):
                    stack.append((node.right, cont, visiting))
                stack.append((node.left, _seq_rest(node.right, cont), visiting))
            elif t is Choice:
                stack.append((node.right, cont, visiting))
                stack.append((node.left, cont, visiting))
            elif t is Label:
                enter = Rule(enter_rule(node.name))
                rest = _seq_rest(node.body, _seq_rest(Rule(leave_rule(node.name)), cont))
                out.setdefault((enter, rest))
            elif t is Rec:
                if node in visiting:
                    raise LeftRecursionError(var=node.var)
                stack.append((unroll(node), cont, visiting | {node}))
            elif t is Var:
                raise ValueError("unbound strategy variable %r" % node.name)
            # Succeed and Fail have no splits
    except LeftRecursionError:
        _split_cache[s] = _LEFT_RECURSIVE
        raise

    result = tuple(out)
    _split_cache[s] = result
    return result


# ---------------------------------------------------------------------------
# step semantics

_CHECK_IN_PROGRESS = object()


def step(state: State, budget: Budget = None) -> list:
    """One transition: every (rule, successor state) pair available from state.

    Rule atoms apply their transformation. Check atoms succeed when the
    checked strategy has no run from the current environment and focus; a
    successful check contributes a single AppCheck transition that leaves the
    term untouched and drops the atom.

    A check whose evaluation reaches the very same check at the very same
    environment and focus (focused subterm, for a focus-local check) has no
    consistent answer (its outcome negates itself), so that re-entry raises
    rather than picking a fixed point.
    """
    budget = budget if budget is not None else Budget()
    out = []
    for atom, rest in split(state.remaining):
        if type(atom) is Rule:
            r = atom.rule
            for env2, focus2 in r.transform(state.env, state.focus):
                budget.tick()
                out.append((r, State(env2, focus2, rest)))
        else:
            inner, local = check_plan(atom)
            # a focus-local outcome holds wherever the same subterm is focused,
            # so it is keyed on that subterm and shared across positions
            where = getattr(state.focus, "focus", state.focus) if local else state.focus
            key = (state.env, where, inner)
            passed = budget.check_cache.get(key)
            if passed is _CHECK_IN_PROGRESS:
                raise BudgetExceededError(
                    "applicability check depends on its own outcome"
                )
            if passed is None:
                budget.check_cache[key] = _CHECK_IN_PROGRESS
                try:
                    passed = not _has_end_state(State(state.env, state.focus, inner), budget)
                except BaseException:
                    del budget.check_cache[key]
                    raise
                budget.check_cache[key] = passed
            if passed:
                budget.tick()
                out.append((APP_CHECK, State(state.env, state.focus, rest)))
    return out


def _has_end_state(state: State, budget: Budget) -> bool:
    # existence version of run; step reaches it through this name per check
    return _reaches_end(state, budget, minor_only=False)


def has_minor_completion(state: State, budget: Budget = None) -> bool:
    """State-level emptiness: some minor-only path reaches a nullable remainder."""
    return _reaches_end(state, budget if budget is not None else Budget(), minor_only=True)


def _reaches_end(state: State, budget: Budget, minor_only: bool) -> bool:
    # depth-first over step, stop at the first state whose remaining strategy
    # is strictly nullable
    seen = set()
    stack = [state]
    while stack:
        st = stack.pop()
        if st in seen:
            continue
        seen.add(st)
        if nullable(st.remaining):
            return True
        budget.tick()
        for r, succ in step(st, budget):
            if (r.minor or not minor_only) and succ not in seen:
                stack.append(succ)
    return False


def minor_sentences(state: State, budget: Budget = None) -> tuple:
    """All minor-only step sequences from state that end with a nullable remainder.

    Returns (sentence, end state) pairs where a sentence is a tuple of rule
    names (AppCheck included). The empty sentence pairs with the state itself
    when its remaining strategy is already nullable. A path that returns to
    one of its own states raises BudgetExceededError; the transitions step
    charges to budget bound every other path.
    """
    budget = budget if budget is not None else Budget()
    out: dict = {}
    path: dict = {}  # the states of the path being extended, in order
    stack = [(state, ())]
    while stack:
        st, sentence = stack.pop()
        while len(path) > len(sentence):
            path.popitem()
        if st in path:
            raise BudgetExceededError(
                "minor-only path returns to one of its states", trace=sentence
            )
        path[st] = None
        if nullable(st.remaining):
            out.setdefault((sentence, st))
        minors = [(r, succ) for r, succ in step(st, budget) if r.minor]
        for r, succ in reversed(minors):
            stack.append((succ, sentence + (r.name,)))
    return tuple(out)


# ---------------------------------------------------------------------------
# big step semantics

def big_step_traced(state: State, budget: Budget = None) -> list:
    """Big steps from state as (major rule, end state, full trace) triples.

    A big step is a closure of minor transitions, one major rule, and then,
    when the post-major state has minor-only completions, each completion
    applied to the end ("trailing minor rules"). The trace lists every rule
    name along the way, minors and AppCheck included. Duplicate (rule, state)
    results keep their shortest trace. Each state of the minor closure is
    stepped once, in breadth-first order.
    """
    budget = budget if budget is not None else Budget()
    # each closure state points back to (previous state, minor rule name), so
    # the closure takes linear memory; prefixes are built only for states
    # that have a major successor
    parents = {state: None}
    queue = deque([state])
    results: dict = {}
    while queue:
        st = queue.popleft()
        prefix = None
        for r, succ in step(st, budget):
            if r.minor:
                if succ not in parents:
                    parents[succ] = (st, r.name)
                    queue.append(succ)
                continue
            if prefix is None:
                prefix = _prefix_to(st, parents)
            for sentence, end in minor_sentences(succ, budget) or (((), succ),):
                trace = prefix + (r.name,) + sentence
                key = (r, end)
                best = results.get(key)
                if best is None or (len(trace), trace) < (len(best), best):
                    results[key] = trace
    return [(r, end, trace) for (r, end), trace in results.items()]


def _prefix_to(state: State, parents: dict) -> tuple:
    # rule names along the back-pointers from the closure's start to state
    names = []
    while parents[state] is not None:
        state, name = parents[state]
        names.append(name)
    return tuple(reversed(names))


def big_step(state: State, budget: Budget = None) -> list:
    """Big steps from state as (major rule, end state) pairs."""
    return [(r, end) for r, end, _ in big_step_traced(state, budget)]


# ---------------------------------------------------------------------------
# tree utilities

_CHILD_FIELDS = {
    Seq: ("left", "right"),
    Choice: ("left", "right"),
    Check: ("inner",),
    Label: ("body",),
    Rec: ("body",),
}


def children_of(s: Strategy) -> tuple:
    fields = _CHILD_FIELDS.get(type(s), ())
    return tuple(getattr(s, f) for f in fields)


def walk(s: Strategy) -> Iterator[tuple]:
    """Preorder traversal yielding (path, node) pairs; paths are child indices."""
    stack = [((), s)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = children_of(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))


def rules_of(s: Strategy) -> tuple:
    """Every rule atom in the tree, check bodies included, first occurrence order."""
    seen: dict = {}
    for _, node in walk(s):
        if type(node) is Rule:
            seen.setdefault(node.rule.key, node.rule)
    return tuple(seen.values())
