"""Zipper-based term navigation and the traversal combinators built on it.

Terms are immutable trees exposing children() and with_child(i, c). A zipper
is a focused subterm plus the stack of frames needed to rebuild the whole
term; navigation rules (up, down, left, right) are ordinary minor rules, so
traversal strategies like somewhere and bottom_up are plain strategy trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable

from .strategy import (
    Choice,
    Rec,
    RewriteRule,
    Rule,
    Strategy,
    Var,
    cached_hash,
    orelse,
    seq,
)


class NavigationError(Exception):
    """An explicit navigation request pointed outside the term."""


@cached_hash
@dataclass(frozen=True)
class Frame:
    """One context layer: the original parent node and which child we entered."""

    parent: Any
    index: int


@cached_hash
@dataclass(frozen=True)
class Zipper:
    """A focused subterm with enough context to rebuild the root."""

    focus: Any
    context: tuple = ()  # innermost frame last

    def with_focus(self, term) -> "Zipper":
        return Zipper(term, self.context)

    @property
    def path(self) -> tuple:
        return tuple(frame.index for frame in self.context)

    def up(self) -> "Zipper":
        if not self.context:
            raise NavigationError("already at the root")
        frame = self.context[-1]
        return Zipper(frame.parent.with_child(frame.index, self.focus), self.context[:-1])

    def down(self, index: int) -> "Zipper":
        kids = self.focus.children()
        if not 0 <= index < len(kids):
            raise NavigationError("no child %d at %r" % (index, self.focus))
        return Zipper(kids[index], self.context + (Frame(self.focus, index),))

    def left(self) -> "Zipper":
        return self._sibling(-1)

    def right(self) -> "Zipper":
        return self._sibling(1)

    def _sibling(self, offset: int) -> "Zipper":
        if not self.context:
            raise NavigationError("the root has no siblings")
        frame = self.context[-1]
        target = frame.index + offset
        # reroot through the updated parent so edits under the focus survive
        parent = frame.parent.with_child(frame.index, self.focus)
        kids = parent.children()
        if not 0 <= target < len(kids):
            raise NavigationError("no sibling at index %d" % target)
        return Zipper(kids[target], self.context[:-1] + (Frame(parent, target),))


def focus_root(term) -> Zipper:
    return Zipper(term)


def unfocus(zipper: Zipper):
    """Rebuild the full term from a zipper."""
    z = zipper
    while z.context:
        z = z.up()
    return z.focus


def focus_at(zipper: Zipper, path: Iterable[int]) -> Zipper:
    """Refocus at a path of child indices, counted from the root."""
    z = focus_to_root(zipper)
    for index in path:
        z = z.down(index)
    return z


def focus_to_root(zipper: Zipper) -> Zipper:
    return Zipper(unfocus(zipper))


def positions(term) -> tuple:
    """Every path in the term, preorder, root first."""
    out = []
    stack = [((), term)]
    while stack:
        path, node = stack.pop()
        out.append(path)
        kids = node.children()
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))
    return tuple(out)


def term_at(term, path: Iterable[int]):
    node = term
    for index in path:
        kids = node.children()
        if not 0 <= index < len(kids):
            raise NavigationError("no subterm at path %r" % (tuple(path),))
        node = kids[index]
    return node


def replace_at(term, path, replacement):
    path = tuple(path)
    if not path:
        return replacement
    kids = term.children()
    index = path[0]
    if not 0 <= index < len(kids):
        raise NavigationError("no subterm at path %r" % (path,))
    return term.with_child(index, replace_at(kids[index], path[1:], replacement))


# ---------------------------------------------------------------------------
# navigation rules

def _up_transform(env, z):
    if z.context:
        return ((env, z.up()),)
    return ()


def _downs_transform(env, z):
    return tuple((env, z.down(i)) for i in range(len(z.focus.children())))


def _left_transform(env, z):
    if z.context and z.context[-1].index > 0:
        return ((env, z.left()),)
    return ()


def _right_transform(env, z):
    if z.context:
        frame = z.context[-1]
        if frame.index + 1 < len(frame.parent.children()):
            return ((env, z.right()),)
    return ()


UP = RewriteRule(name="Up", transform=_up_transform, minor=True, depth=(1, -1))

# Nondeterministic descent, one successor per child. Distinct from the
# selecting Down rules below: it always makes structural progress, which the
# left-recursion analysis credits as consumption.
DOWNS = RewriteRule(
    name="Down", transform=_downs_transform, minor=True,
    key=("Downs",), term_name="Downs", progress=True, depth=(0, 1),
)

LEFT = RewriteRule(name="Left", transform=_left_transform, minor=True, depth=(1, 0))
RIGHT = RewriteRule(name="Right", transform=_right_transform, minor=True, depth=(1, 0))


@lru_cache(maxsize=None)
def down_rule(index: int) -> RewriteRule:
    """Descend into one fixed child position."""

    def transform(env, z):
        if 0 <= index < len(z.focus.children()):
            return ((env, z.down(index)),)
        return ()

    return RewriteRule(
        name="Down", transform=transform, minor=True,
        key=("Down", index), term_name="Down(%d)" % index, depth=(0, 1),
    )


@lru_cache(maxsize=None)
def down_env_rule(key: str) -> RewriteRule:
    """Descend into the child whose index is stored in the environment."""

    def transform(env, z):
        raw = env.get(key)
        if raw is None:
            return ()
        try:
            index = int(raw)
        except ValueError:
            return ()
        if 0 <= index < len(z.focus.children()):
            return ((env, z.down(index)),)
        return ()

    return RewriteRule(
        name="Down", transform=transform, minor=True,
        key=("DownEnv", key), term_name="Down(@%s)" % key, depth=(0, 1),
    )


# ---------------------------------------------------------------------------
# traversal combinators

def once(s: Strategy) -> Strategy:
    """Apply s to exactly one child: descend, run s, come back up."""
    return seq(Rule(DOWNS), s, Rule(UP))


def somewhere(s: Strategy) -> Strategy:
    """Apply s at the focus or anywhere below it."""
    return Rec("x", Choice(s, once(Var("x"))))


def bottom_up(s: Strategy) -> Strategy:
    """Apply s at the deepest applicable position, children before parents."""
    return Rec("x", orelse(once(Var("x")), s))


def top_down(s: Strategy) -> Strategy:
    """Apply s at the shallowest applicable position, parents before children."""
    return Rec("x", orelse(s, once(Var("x"))))


def expr_rule(name: str, fn: Callable[[Any], Iterable], minor: bool = False,
              **kwargs) -> RewriteRule:
    """Lift a plain term rewriter (term -> iterable of terms) to a zipper rule.

    The original function stays reachable as .expr_fn so callers can apply the
    rule positionally without building zippers.
    """

    def transform(env, z):
        return tuple((env, z.with_focus(term)) for term in fn(z.focus))

    return RewriteRule(name=name, transform=transform, minor=minor, expr_fn=fn,
                       depth=(0, 0), **kwargs)


def apply_at(rule: RewriteRule, term, path) -> tuple:
    """All results of rule at one position of term, as full terms.

    Uses the rule's plain rewriter; navigation rules and other rules without
    one are not positional and raise ValueError.
    """
    if rule.expr_fn is None:
        raise ValueError("rule %s has no positional form" % rule.name)
    sub = term_at(term, path)
    return tuple(replace_at(term, path, out) for out in rule.expr_fn(sub))
