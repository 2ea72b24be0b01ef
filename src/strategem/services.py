"""Feedback services: the operations a tutoring front end calls.

All services are pure functions of (exercise, state, arguments). Result sets
are materialized in a canonical order (rule order first, then focus path by
length then lexicographically, then the serialized state) so repeated calls
and separate processes produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .exercise import Exercise
from .navigation import (
    apply_at,
    focus_at,
    focus_root,
    positions,
    term_at,
    unfocus,
)
from .strategy import (
    Budget,
    Environment,
    RewriteRule,
    State,
    big_step_traced,
    has_minor_completion,
    state_sort_key,
)


class ServiceError(Exception):
    pass


class NoStepAvailableError(ServiceError):
    """The strategy offers no next major step from this state."""


class StuckError(ServiceError):
    """A derivation stopped before the strategy was finished."""


class InvalidLocationError(ServiceError):
    def __init__(self, path):
        super().__init__("no subterm at location %s" % list(path))
        self.path = tuple(path)


class RuleNotApplicableError(ServiceError):
    def __init__(self, rule_name: str, path):
        super().__init__("%s does not apply at location %s" % (rule_name, list(path)))
        self.rule_name = rule_name
        self.path = tuple(path)


class NoGeneratorError(ServiceError):
    def __init__(self, code: str):
        super().__init__("exercise %r has no generator" % code)
        self.code = code


@dataclass(frozen=True)
class Candidate:
    """One admissible next step: the rule taken, the state it leads to, and
    the full trace (minor prefix, the rule, trailing minors) behind it."""

    rule: RewriteRule
    state: State
    trace: tuple


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of judging a submitted expression.

    kind is one of NotEq, Buggy, Similar, Expected, Detour, Correct; rule
    names the witnessing rule for Buggy, Expected and Detour. state is the
    matched candidate's state for Expected, so a caller can adopt it.
    """

    kind: str
    rule: str = None
    state: State = field(default=None, compare=False)


def initial_state(exercise: Exercise, term) -> State:
    """Fresh state: empty environment, focus at the root, full strategy."""
    return State(Environment(), focus_root(term), exercise.strategy)


def focused_term(state: State):
    return unfocus(state.focus)


def rule_results(rule: RewriteRule, term) -> tuple:
    """Full terms from applying one rule at every position, preorder."""
    out = []
    for path in positions(term):
        out.extend(apply_at(rule, term, path))
    return tuple(out)


def _candidate_sort_key(exercise: Exercise, cand: Candidate):
    path = cand.state.focus.path
    return (exercise.order_key(cand.rule), cand.rule.name,
            len(path), path, state_sort_key(cand.state))


def allfirsts(exercise: Exercise, state: State, budget: Budget = None) -> List[Candidate]:
    """Every admissible next big step, canonically ordered."""
    # big_step_traced already keeps one shortest trace per (rule, end state)
    candidates = [Candidate(rule, end, trace)
                  for rule, end, trace in big_step_traced(state, budget)]
    return sorted(candidates, key=lambda c: _candidate_sort_key(exercise, c))


def onefirst(exercise: Exercise, state: State, budget: Budget = None) -> Candidate:
    """The single hint: the minimal candidate under the exercise ordering.

    Ties on the rule break by shortest focus path, then lexicographic path,
    then serialized state.
    """
    candidates = allfirsts(exercise, state, budget)
    if not candidates:
        raise NoStepAvailableError("no admissible step from this state")
    return candidates[0]


def derivation(exercise: Exercise, state: State, budget: Budget = None) -> List[Candidate]:
    """A worked solution: repeatedly take the onefirst candidate.

    Returns the empty list when the state can already finish on minor rules
    alone. Raises StuckError when no step exists and the strategy is not
    finished either.
    """
    budget = budget if budget is not None else Budget()
    steps: List[Candidate] = []
    current = state
    while True:
        candidates = allfirsts(exercise, current, budget)
        if not candidates:
            if has_minor_completion(current, budget):
                return steps
            raise StuckError(
                "no step from %r and the strategy is unfinished"
                % print_focus(current)
            )
        steps.append(candidates[0])
        current = candidates[0].state


def print_focus(state: State) -> str:
    from .powers import print_expr

    try:
        return print_expr(focused_term(state))
    except TypeError:
        return repr(focused_term(state))


def ready(exercise: Exercise, state: State) -> bool:
    """Is the full term finished, wherever the focus sits?"""
    return bool(exercise.ready(focused_term(state)))


def stepsremaining(exercise: Exercise, state: State, budget: Budget = None) -> int:
    """How many major steps the worked solution still needs."""
    return len(derivation(exercise, state, budget))


def apply(exercise: Exercise, rule_name: str, location, state: State) -> State:
    """Apply one major rule at an explicit location of the full term.

    The location is a path from the root. The rule must be a major rule of
    the strategy or the extra rule set; buggy rules are not applicable here.
    The remaining strategy is left untouched, so the services keep working
    even when the student wandered off the strategy.
    """
    location = tuple(location)
    rule = exercise.find_rule(rule_name)
    if rule is None:
        raise RuleNotApplicableError(rule_name, location)
    root = focused_term(state)
    try:
        target = term_at(root, location)
    except Exception:
        raise InvalidLocationError(location) from None
    if rule.expr_fn is None:
        raise RuleNotApplicableError(rule_name, location)
    outputs = tuple(rule.expr_fn(target))
    if not outputs:
        raise RuleNotApplicableError(rule_name, location)
    zipper = focus_at(state.focus, location).with_focus(outputs[0])
    return State(state.env, zipper, state.remaining)


def adopt_step(exercise: Exercise, state: State, rule_name: str,
               applied: State, budget: Budget = None) -> State:
    """Swap a free-form apply result for the matching admissible step, if any.

    apply itself never advances the strategy. When the applied rule happens to
    reproduce an allfirsts candidate (same rule, same term, same focus), the
    candidate state carries the properly advanced strategy and environment, so
    front ends prefer it to keep later hints meaningful. Off-strategy applies
    come back unchanged.
    """
    target = focused_term(applied)
    for cand in allfirsts(exercise, state, budget):
        if (cand.rule.name == rule_name
                and cand.state.focus.path == applied.focus.path
                and focused_term(cand.state) == target):
            return cand.state
    return applied


def applicable(exercise: Exercise, location, state: State) -> List[RewriteRule]:
    """Major rules that fire at the location, in the exercise ordering."""
    location = tuple(location)
    root = focused_term(state)
    try:
        target = term_at(root, location)
    except Exception:
        raise InvalidLocationError(location) from None
    out = []
    for rule in exercise.major_rules():
        if rule.expr_fn is not None and tuple(rule.expr_fn(target)):
            out.append(rule)
    out.sort(key=lambda r: (exercise.order_key(r), r.name))
    return out


def generate(registry, code: str, difficulty: str = "medium", seed: int = 0) -> State:
    """A fresh exercise instance as a ready-to-use state."""
    exercise = registry.lookup(code)
    if exercise.generator is None:
        raise NoGeneratorError(code)
    term = exercise.generator(difficulty, seed)
    return initial_state(exercise, term)


def diagnose(exercise: Exercise, state: State, submitted, budget: Budget = None) -> Diagnosis:
    """Judge a submitted expression against the current state.

    The cascade: not equivalent submissions are checked against the buggy
    rules (Buggy beats NotEq); equivalent ones are Similar when unchanged,
    Expected when some admissible next step produces them, Detour when a
    known sound rule produces them verbatim anywhere, and Correct otherwise.
    Detour matching has to be structural: every sound rewrite is equivalent
    to an equivalent submission, so matching up to equivalence would call
    any multi-step leap a detour of whichever rule fires first.
    """
    budget = budget if budget is not None else Budget()
    current = focused_term(state)

    if not exercise.equivalent(current, submitted):
        for rule in exercise.buggy_rules:
            for rewritten in rule_results(rule, current):
                if exercise.equivalent(rewritten, submitted):
                    return Diagnosis("Buggy", rule.name)
        return Diagnosis("NotEq")

    if exercise.similar(current, submitted):
        return Diagnosis("Similar")

    for cand in allfirsts(exercise, state, budget):
        if exercise.similar(focused_term(cand.state), submitted):
            return Diagnosis("Expected", cand.rule.name, cand.state)

    for rule in sorted(exercise.major_rules(),
                       key=lambda r: (exercise.order_key(r), r.name)):
        for rewritten in rule_results(rule, current):
            if exercise.similar(rewritten, submitted):
                return Diagnosis("Detour", rule.name)

    return Diagnosis("Correct")
