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
First sets are a least fixed point; a variable stands for its lexical
binder. A branch is cut at an unbound variable or a binder whose body can
reach itself before any major rule, which is where bounded unrolling stopped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .strategy import (
    Check,
    Choice,
    Label,
    Rec,
    Rule,
    Seq,
    Strategy,
    Succeed,
    Var,
    _label_atoms,
    children_of,
    nothing_free,
    passable,
)

MODES = ("transparent", "opaque")

# printed only: "possible" findings keep the text of the old unrolling bound
FACTOR_MAX_UNROLL = 4

_NONE = frozenset()
_UNBOUND = frozenset((-1,))


@dataclass(frozen=True)
class LintFinding:
    kind: str  # "LeftRecursion" or "LeftFactor"
    path: tuple  # child-index path of the offending node in the strategy tree
    detail: str
    certainty: str = "definite"  # "possible" when a cut branch may overlap


@dataclass(frozen=True)
class LintReport:
    findings: tuple

    @property
    def clean(self) -> bool:
        return not self.findings


def _unguarded_free(atom: Strategy) -> bool:
    # transparent mode: what may run without guaranteed structural descent
    return type(atom) is Check or (atom.rule.minor and not atom.rule.progress)


_FREE = {"transparent": _unguarded_free, "opaque": nothing_free}


class _Positions:
    # A tree's positions numbered in preorder, so every child comes after its
    # parent and the numbers sort as paths do. binder[i] is the position of
    # the Rec that a Var at i refers to lexically, else -1.

    def __init__(self, s: Strategy):
        self.nodes, self.parent, self.kids, self.binder = [], [], [], []
        stack = [(s, -1, {})]
        while stack:
            node, up, scope = stack.pop()
            i = len(self.nodes)
            self.nodes.append(node)
            self.parent.append(up)
            self.kids.append([])
            if up >= 0:
                self.kids[up].append(i)
            self.binder.append(scope.get(node.name, -1) if type(node) is Var else -1)
            if type(node) is Rec:
                scope = {**scope, node.var: i}
            below = children_of(node)
            for k in range(len(below) - 1, -1, -1):
                stack.append((below[k], i, scope))

    def finding(self, i: int, kind: str, detail: str, certainty: str = "definite"):
        path = []
        while i > 0:
            path.append(self.kids[self.parent[i]].index(i))
            i = self.parent[i]
        return LintFinding(kind, tuple(reversed(path)), detail, certainty)


def _left_recursions(pos: _Positions, mode: str) -> list:
    # Children first: is the node passable, and which variables does it reach
    # at a first position. Both depend on the node alone, kept by identity.
    if mode not in MODES:
        raise ValueError("mode must be one of %s, got %r" % (MODES, mode))
    free = _FREE[mode]
    ok, reach, found = {}, {}, []
    for i in range(len(pos.nodes) - 1, -1, -1):
        node = pos.nodes[i]
        t = type(node)
        ok[id(node)] = passable(node, free, lambda child: ok[id(child)])
        if t is Var:
            names = frozenset((node.name,))
        elif t is Seq:
            left = id(node.left)
            names = reach[left] | reach[id(node.right)] if ok[left] else reach[left]
        elif t is Choice:
            names = reach[id(node.left)] | reach[id(node.right)]
        elif t is Label:
            names = reach[id(node.body)] if free(_label_atoms(node)[0]) else _NONE
        elif t is Rec:
            names = reach[id(node.body)] - {node.var}
            if node.var in reach[id(node.body)]:
                found.append(pos.finding(i, "LeftRecursion", "binder %r can recurse before "
                                         "consuming anything (%s mode)" % (node.var, mode)))
        else:  # rule atoms consume, checks are opaque atoms, units reach nothing
            names = _NONE
        reach[id(node)] = names
    return found[::-1]


def _first_sets(pos: _Positions) -> list:
    # Per position: passable (minor rules free, checks blocking), the major
    # first rules, and the binders reached through variables at a first
    # position (-1: an unbound one). A worklist finds the least fixed point:
    # one sweep children first, then only positions whose child or binder grew.
    nodes, kids, binder = pos.nodes, pos.kids, pos.binder
    readers = [[p] if p >= 0 else [] for p in pos.parent]
    for i, b in enumerate(binder):
        if b >= 0:
            readers[b].append(i)
    value = [(False, _NONE, _NONE)] * len(nodes)
    queued = [True] * len(nodes)
    stack = list(range(len(nodes)))
    while stack:
        i = stack.pop()
        queued[i] = False
        t = type(nodes[i])
        if t is Seq or t is Choice:
            left, right = value[kids[i][0]], value[kids[i][1]]
            new = left if t is Seq and not left[0] else (
                (t is Choice and left[0]) or right[0], left[1] | right[1], left[2] | right[2])
        elif t is Label or t is Rec:
            new = value[kids[i][0]]
        elif t is Var:
            b = binder[i]
            if b < 0:
                new = (False, _NONE, _UNBOUND)
            else:
                passes, firsts, reached = value[b]
                new = (passes, firsts, reached | {b})
        elif t is Rule:
            rule = nodes[i].rule
            new = (rule.minor, _NONE if rule.minor else frozenset((rule.name,)), _NONE)
        else:  # a check runs only when its guard fails, so it blocks its branch
            new = (t is Succeed, _NONE, _NONE)
        if new != value[i]:
            value[i] = new
            for r in readers[i]:
                if not queued[r]:
                    queued[r] = True
                    stack.append(r)
    return value


def _left_factors(pos: _Positions) -> list:
    value = _first_sets(pos)
    cut = _UNBOUND | {b for b in pos.binder if b >= 0 and b in value[b][2]}
    found = []
    for i, node in enumerate(pos.nodes):
        if type(node) is Choice:
            (_, lfirsts, lreach), (_, rfirsts, rreach) = (value[k] for k in pos.kids[i])
            lcut, rcut = not cut.isdisjoint(lreach), not cut.isdisjoint(rreach)
            if lfirsts & rfirsts:
                found.append(pos.finding(i, "LeftFactor", "both branches can start with %s"
                                         % ", ".join(sorted(lfirsts & rfirsts))))
            elif (lcut and (rfirsts or rcut)) or (rcut and lfirsts):
                found.append(pos.finding(
                    i, "LeftFactor", "first sets behind recursion were cut off at %d "
                    "unrollings, overlap not ruled out" % FACTOR_MAX_UNROLL, "possible"))
    return found


def detect_left_recursion(s: Strategy, mode: str = "transparent") -> tuple:
    """Findings for every recursion binder its own variable can re-enter
    before anything was consumed."""
    return tuple(_left_recursions(_Positions(s), mode))


def detect_left_factors(s: Strategy) -> tuple:
    """Findings for choices whose branches can open with the same major rule:
    "definite" when they share one, "possible" when one branch is cut and the
    other has a first rule or is cut."""
    return tuple(_left_factors(_Positions(s)))


def lint_strategy(s: Strategy, mode: str = "transparent") -> LintReport:
    """Run both analyses and combine the findings, in path order."""
    pos = _Positions(s)
    # both lists are in path order, and no choice shares its path with a binder
    found = _left_recursions(pos, mode) + _left_factors(pos)
    return LintReport(tuple(sorted(found, key=lambda f: f.path)))
