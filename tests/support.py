"""Engine machinery that only the tests use: oracles and a demonstration.

split_unguarded shows the time-out that split's left-recursion guard
prevents. run and recognize search whole derivations with big steps,
language_upto enumerates a bounded language and majors_of projects its
sentences onto major rules; accepts_empty is the syntactic minor-only
emptiness test. bounded_left_recursion and bounded_left_factors are lint's
analyses as recursive walks that unroll each binder a bounded number of
times. plain_has_end_state and plain_minor_sentences search
without the engine's check plans, check-memo keys or pruning. The tests
compare the engine against these.
"""

from collections import deque

from strategem.lint import _FREE, FACTOR_MAX_UNROLL, LintFinding
from strategem.strategy import (
    APP_CHECK,
    SUCCEED,
    Budget,
    BudgetExceededError,
    Check,
    Choice,
    Fail,
    Label,
    Rec,
    RewriteRule,
    Rule,
    Seq,
    State,
    Strategy,
    Succeed,
    Var,
    _seq_rest,
    big_step,
    children_of,
    enter_rule,
    has_minor_completion,
    leave_rule,
    minor_passable,
    minor_sentences,
    nullable,
    passable,
    split,
    state_sort_key,
    unroll,
    walk,
)

DEFAULT_MAX_LEN = 32
DEFAULT_MAX_UNROLL = 8
DEFAULT_NODE_BUDGET = 200_000


def accepts_empty(s: Strategy) -> bool:
    """True iff the language of s has a sentence of minor atoms only.

    This is the engine's minor_passable, the analysis that keeps the states
    of a trailing minor walk.
    """
    return minor_passable(s)


def plain_step(state: State, budget: Budget, checking: dict) -> list:
    """step with every check searched by plain_has_end_state at its own state.

    checking maps each check state (environment, focus, whole inner
    strategy) to its outcome, or to None while it is being answered; meeting
    an unanswered one again is the engine's self-dependency error.
    """
    out = []
    for atom, rest in split(state.remaining):
        if type(atom) is Rule:
            for env2, focus2 in atom.rule.transform(state.env, state.focus):
                budget.tick()
                out.append((atom.rule, State(env2, focus2, rest)))
            continue
        probe = State(state.env, state.focus, atom.inner)
        if probe not in checking:
            checking[probe] = None
            try:
                checking[probe] = not plain_has_end_state(probe, budget, checking)
            except BaseException:
                del checking[probe]
                raise
        if checking[probe] is None:
            raise BudgetExceededError("applicability check depends on its own outcome")
        if checking[probe]:
            budget.tick()
            out.append((APP_CHECK, State(state.env, state.focus, rest)))
    return out


def plain_has_end_state(state: State, budget: Budget, checking: dict = None) -> bool:
    """Some path of plain steps from state reaches a nullable remainder."""
    checking = {} if checking is None else checking
    seen = {state}
    stack = [state]
    while stack:
        st = stack.pop()
        if nullable(st.remaining):
            return True
        for _, succ in plain_step(st, budget, checking):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


def plain_minor_sentences(state: State, budget: Budget) -> tuple:
    """minor_sentences by a breadth-first walk of every minor path from state."""
    checking: dict = {}
    parents = {state: None}
    queue = deque([state])
    out = []
    while queue:
        st = queue.popleft()
        if nullable(st.remaining):
            names, at = [], st
            while parents[at] is not None:
                at, name = parents[at]
                names.append(name)
            out.append((tuple(reversed(names)), st))
        for r, succ in plain_step(st, budget, checking):
            if r.minor and succ not in parents:
                parents[succ] = (st, r.name)
                queue.append(succ)
    return tuple(out)


def split_unguarded(s: Strategy, budget: Budget) -> tuple:
    """split without the left-recursion guard, for demonstrating the time-out.

    A left-recursive strategy makes this loop; the budget turns the loop into
    a BudgetExceededError instead of a hang.
    """
    out: dict = {}
    stack = [(s, SUCCEED)]
    while stack:
        budget.tick()
        node, cont = stack.pop()
        t = type(node)
        if t is Rule or t is Check:
            out.setdefault((node, cont))
        elif t is Seq:
            if nullable(node.left):
                stack.append((node.right, cont))
            stack.append((node.left, _seq_rest(node.right, cont)))
        elif t is Choice:
            stack.append((node.right, cont))
            stack.append((node.left, cont))
        elif t is Label:
            enter = Rule(enter_rule(node.name))
            out.setdefault((enter, _seq_rest(node.body, _seq_rest(Rule(leave_rule(node.name)), cont))))
        elif t is Rec:
            stack.append((unroll(node), cont))
        elif t is Var:
            raise ValueError("unbound strategy variable %r" % node.name)
    return tuple(out)


def run(state: State, budget: Budget = None) -> tuple:
    """All end states reachable from state, remaining normalized to Succeed.

    An end state is the target of a minor-only completion of any state in the
    reflexive-transitive big-step closure; in particular a start state whose
    minor rules can finish the strategy outright is its own end state.
    """
    budget = budget if budget is not None else Budget()
    seen = {state}
    stack = [state]
    ends: dict = {}
    while stack:
        st = stack.pop()
        for _, end in minor_sentences(st, budget):
            ends.setdefault(State(end.env, end.focus, SUCCEED))
        for _, succ in big_step(st, budget):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return tuple(sorted(ends, key=state_sort_key))


def recognize(strategy: Strategy, majors, state: State, budget: Budget = None) -> bool:
    """True iff some big-step path through strategy follows exactly this major trace.

    The state supplies the starting environment and focus; its own remaining
    strategy is ignored. majors may hold RewriteRule values or plain names.
    """
    budget = budget if budget is not None else Budget()
    names = [m.name if isinstance(m, RewriteRule) else m for m in majors]
    start = State(state.env, state.focus, strategy)

    def walk_trace(st, i):
        if i == len(names):
            return has_minor_completion(st, budget)
        for r, succ in big_step(st, budget):
            if r.name == names[i] and walk_trace(succ, i + 1):
                return True
        return False

    return walk_trace(start, 0)


# ---------------------------------------------------------------------------
# bounded language enumeration

def language_upto(s: Strategy, max_len: int = DEFAULT_MAX_LEN,
                  max_unroll: int = DEFAULT_MAX_UNROLL,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> frozenset:
    """Sentences of the language of s, bounded in length and Rec unrollings.

    Sentences are tuples of atom nodes (Rule or Check). Labels contribute
    their Enter and Leave atoms, which count toward the length. Each Rec value
    may unfold at most max_unroll times per sentence. Exceeding node_budget
    raises BudgetExceededError.
    """
    if max_len < 0 or max_unroll < 0:
        raise ValueError("bounds must be non-negative")
    visited_nodes = [0]

    def lang(node, unrolls, limit):
        visited_nodes[0] += 1
        if visited_nodes[0] > node_budget:
            raise BudgetExceededError("language enumeration exceeded %d nodes" % node_budget)
        t = type(node)
        if t is Rule or t is Check:
            return {(node,)} if limit >= 1 else set()
        if t is Succeed:
            return {()}
        if t is Fail:
            return set()
        if t is Seq:
            lefts = lang(node.left, unrolls, limit)
            if not lefts:
                return set()
            shortest = min(len(x) for x in lefts)
            rights = lang(node.right, unrolls, limit - shortest)
            return {x + y for x in lefts for y in rights if len(x) + len(y) <= limit}
        if t is Choice:
            return lang(node.left, unrolls, limit) | lang(node.right, unrolls, limit)
        if t is Label:
            if limit < 2:
                return set()
            enter = Rule(enter_rule(node.name))
            leave = Rule(leave_rule(node.name))
            return {(enter,) + x + (leave,) for x in lang(node.body, unrolls, limit - 2)}
        if t is Rec:
            count = unrolls.get(node, 0)
            if count >= max_unroll:
                return set()
            bumped = dict(unrolls)
            bumped[node] = count + 1
            return lang(unroll(node), bumped, limit)
        if t is Var:
            raise ValueError("unbound strategy variable %r" % node.name)
        raise TypeError("not a strategy node: %r" % (node,))

    return frozenset(lang(s, {}, max_len))


def majors_of(sentence: tuple) -> tuple:
    """Project a sentence onto its major rule names, dropping minors and checks."""
    return tuple(a.rule.name for a in sentence if type(a) is Rule and not a.rule.minor)


# ---------------------------------------------------------------------------
# lint by bounded unrolling

def _reaches_var(node: Strategy, var: str, free) -> bool:
    # is Var(var) reachable at the leftmost consumable position?
    t = type(node)
    if t is Var:
        return node.name == var
    if t is Seq:
        if _reaches_var(node.left, var, free):
            return True
        return passable(node.left, free) and _reaches_var(node.right, var, free)
    if t is Choice:
        return _reaches_var(node.left, var, free) or _reaches_var(node.right, var, free)
    if t is Label:
        return free(Rule(enter_rule(node.name))) and _reaches_var(node.body, var, free)
    if t is Rec:
        if node.var == var:  # inner binder shadows the variable we track
            return False
        return _reaches_var(node.body, var, free)
    # rule atoms consume, checks are opaque atoms, units reach nothing
    return False


def bounded_left_recursion(s: Strategy, mode: str) -> tuple:
    """lint.detect_left_recursion, one recursive walk per binder."""
    free = _FREE[mode]
    return tuple(
        LintFinding(kind="LeftRecursion", path=path,
                    detail="binder %r can recurse before consuming anything (%s mode)"
                           % (node.var, mode))
        for path, node in walk(s)
        if type(node) is Rec and _reaches_var(node.body, node.var, free))


def _first_info(node: Strategy, bindings: dict, counters: dict) -> tuple:
    # (major first rules, passable without a major rule, cut short); a
    # variable is looked up in the bindings in force where it is expanded,
    # and each binder unrolls at most FACTOR_MAX_UNROLL times per path
    t = type(node)
    if t is Rule:
        if node.rule.minor:
            return frozenset(), True, False
        return frozenset((node.rule.name,)), False, False
    if t is Check or t is Fail:
        return frozenset(), False, False
    if t is Succeed:
        return frozenset(), True, False
    if t is Seq:
        left = _first_info(node.left, bindings, counters)
        if not left[1]:
            return left
        right = _first_info(node.right, bindings, counters)
        return left[0] | right[0], right[1], left[2] or right[2]
    if t is Choice:
        left = _first_info(node.left, bindings, counters)
        right = _first_info(node.right, bindings, counters)
        return left[0] | right[0], left[1] or right[1], left[2] or right[2]
    if t is Label:
        return _first_info(node.body, bindings, counters)
    if t is Rec:
        used = counters.get(node, 0)
        if used >= FACTOR_MAX_UNROLL:
            return frozenset(), False, True
        return _first_info(node.body, {**bindings, node.var: node},
                           {**counters, node: used + 1})
    if t is Var:
        rec = bindings.get(node.name)
        if rec is None:
            return frozenset(), False, True
        return _first_info(rec, bindings, counters)
    raise TypeError("not a strategy node: %r" % (node,))


def bounded_left_factors(s: Strategy) -> tuple:
    """lint.detect_left_factors with first sets unrolled FACTOR_MAX_UNROLL
    times per binder; a set the bound cut short makes a finding possible."""
    findings = []
    stack = [((), s, {})]
    while stack:
        path, node, bindings = stack.pop()
        if type(node) is Rec:
            bindings = {**bindings, node.var: node}
        if type(node) is Choice:
            lfirsts, _, lcut = _first_info(node.left, bindings, {})
            rfirsts, _, rcut = _first_info(node.right, bindings, {})
            common = lfirsts & rfirsts
            if common:
                findings.append(LintFinding(
                    kind="LeftFactor", path=path,
                    detail="both branches can start with %s" % ", ".join(sorted(common))))
            elif (lcut and (rfirsts or rcut)) or (rcut and lfirsts):
                findings.append(LintFinding(
                    kind="LeftFactor", path=path,
                    detail="first sets behind recursion were cut off at "
                           "%d unrollings, overlap not ruled out" % FACTOR_MAX_UNROLL,
                    certainty="possible"))
        kids = children_of(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i], bindings))
    findings.sort(key=lambda f: (f.path, f.kind))
    return tuple(findings)
