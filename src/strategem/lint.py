"""Static checks on strategies: left recursion and shared first rules.

Left recursion matters because splitting a left-recursive strategy would loop
before ever producing an atom. The detector flags a binder whose variable is
reachable after a prefix that can finish on free atoms alone
(strategy.passable). The transparent mode is conservative: checks and minor
rules without guaranteed structural descent are free, so a recursion guarded
only by them is still flagged. The opaque mode frees no atom, like strict
nullability. Every variable counts as failing, bound or not.

The left-factor check warns when both branches of a choice can open with the
same major rule, which makes the step machinery explore both branches for
every occurrence. Applicability checks block a branch here: a branch guarded
by a check only runs when the shared prefix fails, so it cannot race it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .strategy import (
    Check,
    Choice,
    Fail,
    Label,
    Rec,
    Rule,
    Seq,
    Strategy,
    Succeed,
    Var,
    children_of,
    enter_rule,
    nothing_free,
    passable,
    walk,
)

MODES = ("transparent", "opaque")

FACTOR_MAX_UNROLL = 4


@dataclass(frozen=True)
class LintFinding:
    kind: str  # "LeftRecursion" or "LeftFactor"
    path: tuple  # child-index path of the offending node in the strategy tree
    detail: str
    certainty: str = "definite"  # "possible" when the bounded analysis gave up


@dataclass(frozen=True)
class LintReport:
    findings: tuple

    @property
    def clean(self) -> bool:
        return not self.findings


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError("mode must be one of %s, got %r" % (MODES, mode))


def _unguarded_free(atom: Strategy) -> bool:
    # transparent mode: what may run without guaranteed structural descent
    return type(atom) is Check or (atom.rule.minor and not atom.rule.progress)


_FREE = {"transparent": _unguarded_free, "opaque": nothing_free}


def _reaches_var(node: Strategy, var: str, free, names: frozenset) -> bool:
    # is Var(var) reachable at the leftmost consumable position?
    t = type(node)
    if t is Var:
        return node.name == var
    if t is Seq:
        if _reaches_var(node.left, var, free, names):
            return True
        return passable(node.left, free, names) and _reaches_var(node.right, var, free, names)
    if t is Choice:
        return (_reaches_var(node.left, var, free, names)
                or _reaches_var(node.right, var, free, names))
    if t is Label:
        return free(Rule(enter_rule(node.name))) and _reaches_var(node.body, var, free, names)
    if t is Rec:
        if node.var == var:  # inner binder shadows the variable we track
            return False
        return _reaches_var(node.body, var, free, names)
    # rule atoms consume, checks are opaque atoms, units reach nothing
    return False


def detect_left_recursion(s: Strategy, mode: str = "transparent") -> tuple:
    """Findings for every recursion binder its own variable can re-enter
    before anything was consumed."""
    _check_mode(mode)
    free = _FREE[mode]
    # binding every variable name makes each variable fail, never raise
    names = frozenset(node.name for _, node in walk(s) if type(node) is Var)
    findings = []
    for path, node in walk(s):
        if type(node) is Rec and _reaches_var(node.body, node.var, free, names):
            findings.append(LintFinding(
                kind="LeftRecursion",
                path=path,
                detail="binder %r can recurse before consuming anything (%s mode)"
                       % (node.var, mode),
            ))
    return tuple(findings)


# ---------------------------------------------------------------------------
# left factors

@dataclass(frozen=True)
class _FirstInfo:
    firsts: frozenset  # names of major rules that can open a sentence
    passable: bool  # can the whole thing succeed without a major rule
    truncated: bool  # the unroll bound cut the analysis short


def _first_info(node: Strategy, bindings: dict, counters: dict) -> _FirstInfo:
    t = type(node)
    if t is Rule:
        if node.rule.minor:
            return _FirstInfo(frozenset(), True, False)
        return _FirstInfo(frozenset((node.rule.name,)), False, False)
    if t is Check:
        # a checked branch runs only when its guard fails, so it cannot race
        # the other branch; it contributes nothing and stops the scan
        return _FirstInfo(frozenset(), False, False)
    if t is Succeed:
        return _FirstInfo(frozenset(), True, False)
    if t is Fail:
        return _FirstInfo(frozenset(), False, False)
    if t is Seq:
        left = _first_info(node.left, bindings, counters)
        if not left.passable:
            return left
        right = _first_info(node.right, bindings, counters)
        return _FirstInfo(left.firsts | right.firsts, right.passable,
                          left.truncated or right.truncated)
    if t is Choice:
        left = _first_info(node.left, bindings, counters)
        right = _first_info(node.right, bindings, counters)
        return _FirstInfo(left.firsts | right.firsts,
                          left.passable or right.passable,
                          left.truncated or right.truncated)
    if t is Label:
        return _first_info(node.body, bindings, counters)
    if t is Rec:
        used = counters.get(node, 0)
        if used >= FACTOR_MAX_UNROLL:
            return _FirstInfo(frozenset(), False, True)
        bumped = dict(counters)
        bumped[node] = used + 1
        inner = dict(bindings)
        inner[node.var] = node
        return _first_info(node.body, inner, bumped)
    if t is Var:
        rec = bindings.get(node.name)
        if rec is None:
            return _FirstInfo(frozenset(), False, True)
        return _first_info(rec, bindings, counters)
    raise TypeError("not a strategy node: %r" % (node,))


def detect_left_factors(s: Strategy) -> tuple:
    """Findings for choices whose branches can open with the same major rule.

    Only major rules are compared; minor navigation passes through and
    applicability checks block their branch. First sets behind recursion are
    computed up to a fixed unroll bound; when the bound cuts the analysis
    short and an overlap can no longer be ruled out, the finding is reported
    with certainty "possible" instead of being dropped.
    """
    findings = []
    stack = [((), s, {})]
    while stack:
        path, node, bindings = stack.pop()
        if type(node) is Rec:
            bindings = dict(bindings)
            bindings[node.var] = node
        if type(node) is Choice:
            left = _first_info(node.left, bindings, {})
            right = _first_info(node.right, bindings, {})
            common = left.firsts & right.firsts
            if common:
                findings.append(LintFinding(
                    kind="LeftFactor",
                    path=path,
                    detail="both branches can start with %s"
                           % ", ".join(sorted(common)),
                ))
            else:
                left_open = bool(left.firsts) or left.truncated
                right_open = bool(right.firsts) or right.truncated
                if (left.truncated and right_open) or (right.truncated and left_open):
                    findings.append(LintFinding(
                        kind="LeftFactor",
                        path=path,
                        detail="first sets behind recursion were cut off at "
                               "%d unrollings, overlap not ruled out" % FACTOR_MAX_UNROLL,
                        certainty="possible",
                    ))
        kids = children_of(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i], bindings))
    findings.sort(key=lambda f: (f.path, f.kind))
    return tuple(findings)


def lint_strategy(s: Strategy, mode: str = "transparent") -> LintReport:
    """Run both analyses and combine the findings."""
    _check_mode(mode)
    findings = detect_left_recursion(s, mode) + detect_left_factors(s)
    return LintReport(tuple(sorted(findings, key=lambda f: (f.path, f.kind, f.detail))))
