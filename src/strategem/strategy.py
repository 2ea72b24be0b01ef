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
import weakref
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
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

    def __init__(self, message: str, used: int = None):
        super().__init__(message)
        self.used = used


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


class _Entry(weakref.ref):
    __slots__ = ("key",)  # so that its instance's death can remove it


def interned(cls):
    """Class decorator: one live instance per value (hash-consing).

    cls(*fields) returns the live instance with those fields, if any, so
    equality is identity and the hash is object's, O(1) at any depth. The
    fields (cls._fields) are the __slots__ not starting with "_", instances
    are immutable, and the repr is the dataclass text unless cls has its
    own. A table holds each instance weakly under its key: the fields,
    unless the class's __new__ passes another to cls._intern(key, fields).
    A key that names a field by id stays unique while the instance holds it.
    """
    table = cls._table = {}
    cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
    setters = [getattr(cls, name).__set__ for name in cls._fields]

    def forget(entry):
        if table.get(entry.key) is entry:
            del table[entry.key]

    def intern(key, fields):
        entry = table.get(key)
        if entry is not None:
            obj = entry()
            if obj is not None:
                return obj
        obj = object.__new__(cls)
        for set_field, value in zip(setters, fields, strict=True):
            set_field(obj, value)
        entry = table[key] = _Entry(obj, forget)
        entry.key = key
        return obj

    cls._intern = staticmethod(intern)
    if cls.__new__ is object.__new__:
        cls.__new__ = staticmethod(lambda _, *fields: intern(fields, fields))
    if "__repr__" not in vars(cls):
        cls.__repr__ = _dataclass_repr
    cls.__setattr__ = cls.__delattr__ = _immutable
    return cls


def _dataclass_repr(self):
    return "%s(%s)" % (type(self).__qualname__, ", ".join(
        "%s=%r" % (name, getattr(self, name)) for name in self._fields))


def _immutable(self, *_):
    raise AttributeError("%s values are interned and immutable" % type(self).__name__)


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
    """Base class for strategy tree nodes, interned. A node's __dict__ holds
    the facts kept on it (_kept_on_node)."""

    __slots__ = ("__dict__", "__weakref__")

    def __new__(cls, *fields):
        # a key names node fields by id: a kept fact can refer back to its
        # node (an unrolled Rec), so a key holding one could keep it alive
        return cls._intern(tuple(f if type(f) is str else id(f) for f in fields), fields)


@interned
class Rule(Strategy):
    __slots__ = ("rule",)

    def __new__(cls, rule: RewriteRule):
        # one atom per RewriteRule key, the rules' equality
        return cls._intern(rule.key, (rule,))


@interned
class Check(Strategy):
    """Applicability check: succeeds exactly when the inner strategy has no run."""

    __slots__ = ("inner",)


@interned
class Seq(Strategy):
    __slots__ = ("left", "right")


@interned
class Choice(Strategy):
    __slots__ = ("left", "right")


@interned
class Succeed(Strategy):
    __slots__ = ()


@interned
class Fail(Strategy):
    __slots__ = ()


@interned
class Label(Strategy):
    __slots__ = ("name", "body")


@interned
class Rec(Strategy):
    """Explicit fixed point: Var(var) inside body refers back to this node."""

    __slots__ = ("var", "body")


@interned
class Var(Strategy):
    __slots__ = ("name",)


SUCCEED = Succeed()
FAIL = Fail()


@interned
class _Labels:
    """One cell of a label stack, the top label over the cells below it.
    Cells share their tails, so a push is O(1) however deep the stack."""

    __slots__ = ("top", "below", "__weakref__")


def cells(top) -> tuple:
    """The cells of a stack whose cells link down through .below, from the
    bottom up to top; () for None."""
    out = []
    while top is not None:
        out.append(top)
        top = top.below
    return tuple(out[::-1])


@interned
class Environment:
    """Finite string-to-string map plus the stack of entered labels."""

    # bindings: sorted (key, value) pairs; labels: innermost label on top
    __slots__ = ("bindings", "labels", "__weakref__")

    def __new__(cls, bindings: tuple = (), labels: Optional[_Labels] = None):
        key = (bindings, labels)
        return cls._intern(key, key)

    @property
    def label_path(self) -> tuple:
        """The entered labels, outermost first."""
        return tuple(cell.top for cell in cells(self.labels))

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


@interned
@dataclass(eq=False, init=False)
class State:
    """One point of an exercise: environment, focused term, remaining strategy."""

    __slots__ = ("env", "focus", "remaining", "__weakref__")
    env: Environment
    focus: Any
    remaining: Strategy

    def __new__(cls, env, focus, remaining):
        key = (env, focus, remaining)
        return cls._intern(key, key)


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
    # rebuilds each node it passes; interning gives back an unchanged one
    t = type(node)
    if t is Var:
        return replacement if node.name == var else node
    if t is Rule or (t is Rec and node.var == var):  # an inner binder shadows
        return node
    # checks capture variables too (try/repeat put the binder inside one)
    return t(*(_substitute(f, var, replacement) if isinstance(f, Strategy) else f
               for f in map(node.__getattribute__, t._fields)))


def _kept_on_node(fn):
    # fn(s), computed on first use and kept in s's own dict, so it dies with
    # s; for strategy nodes and exercises
    slot = "_" + fn.__name__

    def wrapper(s):
        d = s.__dict__
        if slot not in d:
            d[slot] = fn(s)
        return d[slot]

    return wrapper


@_kept_on_node
def _unroll_rec(rec: Rec) -> Strategy:
    return _substitute(rec.body, rec.var, rec)


def unroll(s: Strategy) -> Strategy:
    """One unfolding of a Rec node; identity on everything else."""
    if type(s) is Rec:
        return _unroll_rec(s)
    return s


# ---------------------------------------------------------------------------
# label expansion rules and the check pseudo rule

def enter_rule(label: str) -> RewriteRule:
    def transform(env, focus):
        return ((env.push_label(label), focus),)

    return RewriteRule(
        name="Enter(%s)" % label, transform=transform, minor=True, key=("Enter", label),
        depth=(0, 0),
    )


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
# structural analyses
#
# Facts about a strategy value, kept on its node (_kept_on_node). A variable,
# bound or not, is impassable, not total and (0, 0) deep, which is the least
# fixed point for a bound one. Only split, the one place a run reaches a
# variable, reports an unbound one.
#
# One least fixed point answers "can s finish on these atoms alone?". The
# caller says which atoms are free, and a label counts as its Enter atom.
# It has three callers. nullable frees no atom. minor_passable frees checks
# and minor rules: the trailing minor walks keep only the states it accepts,
# and the test oracle accepts_empty (tests/support.py) is that analysis.
# lint's transparent mode frees checks and non-progressing minor rules. The
# two engine callers are kept on the node, so passable itself keeps nothing.

def nothing_free(atom: Strategy) -> bool:
    """Free-atom predicate of strict nullability: every atom consumes."""
    return False


def minor_free(atom: Strategy) -> bool:
    """Free-atom predicate of minor_passable: checks and minor rules."""
    return type(atom) is Check or atom.rule.minor


def passable(s: Strategy, free: Callable[[Strategy], bool], part: Callable = None) -> bool:
    """True iff the language of s has a sentence made only of atoms free accepts.

    A Rec body is evaluated once with its variable impassable; the equation
    is monotone, so one pass gives the least fixed point. part(child) gives
    the answer for a child node; by default it is passable itself, and a
    kept analysis passes itself so that each node is evaluated once.
    """
    part = part or (lambda child: passable(child, free))
    t = type(s)
    if t is Succeed:
        return True
    if t is Fail or t is Var:
        return False
    if t is Rule or t is Check:
        return free(s)
    if t is Label:
        return free(_label_atoms(s)[0]) and part(s.body)
    if t is Seq:
        return part(s.left) and part(s.right)
    if t is Choice:
        return part(s.left) or part(s.right)
    if t is Rec:
        return part(s.body)
    raise TypeError("not a strategy node: %r" % (s,))


@_kept_on_node
def nullable(s: Strategy) -> bool:
    """True iff the empty sentence is in the language of s."""
    return passable(s, nothing_free)


@_kept_on_node
def minor_passable(s: Strategy) -> bool:
    """True iff the language of s has a sentence of minor atoms only.

    This is the syntactic test; it ignores whether those minor atoms would
    actually execute from any particular state. It is computed from the
    children's kept answers, so a new strategy costs one pass over its nodes.
    """
    return passable(s, minor_free, minor_passable)


# Two more passes decide how much work a check needs.

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
            type(r) is Seq and r.left is Check(s.left) and total(r.right))
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
    if left is SUCCEED:
        return right
    if right is SUCCEED:
        return left
    return Seq(left, right)


@_kept_on_node
def _label_atoms(label: Label) -> tuple:
    # the (Enter, Leave) rule atoms a label expands to
    return Rule(enter_rule(label.name)), Rule(leave_rule(label.name))


# The nodes split has worked on; an entry dies with its node. The engine
# never reads it: it is there to be counted, and a node is in it exactly
# when it keeps its split.
_split_cache = weakref.WeakSet()


def split(s: Strategy) -> tuple:
    """All (atom, rest) decompositions of s.

    Atoms are Rule or Check nodes. Labels expand to their Enter atom with the
    body and the Leave rule appended to the rest. Revisiting a Rec node on one
    expansion path without consuming an atom raises LeftRecursionError; the
    outcome (including that error) is kept on the node.
    """
    kept = _split(s)
    if type(kept) is tuple:
        return kept
    raise LeftRecursionError(var=kept)


@_kept_on_node
def _split(s: Strategy):
    # split's outcome: the decompositions, or the binder a left recursion
    # revisited (a string)
    _split_cache.add(s)
    out: dict = {}
    stack = [(s, SUCCEED, frozenset())]
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
            enter, leave = _label_atoms(node)
            out.setdefault((enter, _seq_rest(node.body, _seq_rest(leave, cont))))
        elif t is Rec:
            if node in visiting:
                return node.var
            stack.append((unroll(node), cont, visiting | {node}))
        elif t is Var:
            _split_cache.discard(s)
            raise ValueError("unbound strategy variable %r" % node.name)
        # Succeed and Fail have no splits
    return tuple(out)


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
            passed = _no_run(state.env, state.focus, where, inner, budget)
            if passed is _CHECK_IN_PROGRESS:
                raise BudgetExceededError(
                    "applicability check depends on its own outcome"
                )
            if passed:
                budget.tick()
                out.append((APP_CHECK, State(state.env, state.focus, rest)))
    return out


def _no_run(env, focus, where, s: Strategy, budget: Budget):
    # True when s has no run from (env, focus), memoised in check_cache under
    # (env, where, s); _CHECK_IN_PROGRESS while that very question is open
    key = (env, where, s)
    cache = budget.check_cache
    passed = cache.get(key)
    if passed is None:
        cache[key] = _CHECK_IN_PROGRESS
        try:
            passed = not _has_end_state(State(env, focus, s), budget)
        except BaseException:
            del cache[key]
            raise
        cache[key] = passed
    return passed


# navigation.UP's key: it applies wherever the focus has a context
_UP_KEY = ("Up",)


def _child_question(s: Strategy) -> Optional[Strategy]:
    # x when s is x ; Up and every run of x ends at the depth it starts from:
    # from a focus with a context, s then has a run exactly when x has one
    if type(s) is Seq and type(s.right) is Rule and s.right.rule.key == _UP_KEY:
        if depth_effect(s.left) == (0, 0):
            return s.left
    return None


def _has_end_state(state: State, budget: Budget) -> bool:
    # existence version of run, reached through this name by _no_run on each
    # memo miss: depth-first over step, stop at the first state whose
    # remaining strategy is strictly nullable. A state x ; Up below the root
    # asks whether x has a run from its focus; that question is focus-local,
    # so _no_run memoises it per subterm and answers it by a nested search,
    # and a parent's check then costs a lookup per child. A question already
    # being answered is searched here instead.
    seen = set()
    stack = [state]
    while stack:
        st = stack.pop()
        if st in seen:
            continue
        seen.add(st)
        if nullable(st.remaining):
            return True
        x = _child_question(st.remaining)
        if x is not None and getattr(st.focus, "context", None):
            passed = _no_run(st.env, st.focus, st.focus.focus, x, budget)
            if passed is False:
                return True
            if passed is True:
                continue
        budget.tick()
        for _, succ in step(st, budget):
            if succ not in seen:
                stack.append(succ)
    return False


def has_minor_completion(state: State, budget: Budget = None) -> bool:
    """State-level emptiness: some minor-only path reaches a nullable remainder.

    A finished state is answered without a step.
    """
    budget = budget if budget is not None else Budget()
    return nullable(state.remaining) or any(
        nullable(st.remaining) for st, _, _ in _minor_closure(state, budget, True))


def _minor_closure(state: State, budget: Budget, finishing: bool = False) -> Iterator[tuple]:
    """Breadth-first walk of the minor-only paths from state.

    Steps each state once and yields (state, its major (rule, successor)
    pairs, parents), where parents maps each state seen so far to (previous
    state, minor rule name), or None for the start. A minor loop only comes
    back to a state already seen.

    finishing walks only the states that can finish on minors, those whose
    remaining strategy is minor_passable. Every minor successor of a state
    left out is left out too: split gives a . L(rest) within L(s), so a
    minor-only sentence of rest would make one of s. So no state left out is
    on a minor path to a nullable remainder, and the walk meets the states
    it keeps in the same order, from the same parents, as the full walk.
    """
    parents = {state: None}
    queue = deque([state] if not finishing or minor_passable(state.remaining) else ())
    while queue:
        st = queue.popleft()
        majors = []
        for r, succ in step(st, budget):
            if not r.minor:
                majors.append((r, succ))
            elif succ not in parents and (not finishing or minor_passable(succ.remaining)):
                parents[succ] = (st, r.name)
                queue.append(succ)
        yield st, majors, parents


def minor_sentences(state: State, budget: Budget = None) -> tuple:
    """One shortest minor-only sentence to each reachable nullable remainder.

    Returns (sentence, end state) pairs; a sentence is a tuple of rule names,
    AppCheck included, and is empty when state itself is finished. The
    transitions step charges to budget bound the walk, which steps only the
    states that can still finish on minors.
    """
    budget = budget if budget is not None else Budget()
    return tuple((_prefix_to(st, parents), st)
                 for st, _, parents in _minor_closure(state, budget, True)
                 if nullable(st.remaining))


# ---------------------------------------------------------------------------
# big step semantics

def big_step_traced(state: State, budget: Budget = None) -> list:
    """Big steps from state as (major rule, end state, full trace) triples.

    A big step is a closure of minor transitions, one major rule, and then,
    when the post-major state has minor-only completions, each completion
    applied to the end ("trailing minor rules"). The trace lists every rule
    name along the way, minors and AppCheck included. Duplicate (rule, state)
    results keep their shortest trace. The minor closure and each trailing
    walk step every state once, in breadth-first order.
    """
    budget = budget if budget is not None else Budget()
    results: dict = {}
    for st, majors, parents in _minor_closure(state, budget):
        for r, succ in majors:
            head = _prefix_to(st, parents) + (r.name,)
            for sentence, end in minor_sentences(succ, budget) or (((), succ),):
                trace = head + sentence
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

def children_of(s: Strategy) -> tuple:
    """The fields of s that are strategy nodes, in order."""
    return tuple(f for f in map(s.__getattribute__, s._fields) if isinstance(f, Strategy))


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
