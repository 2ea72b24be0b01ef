"""Exercise descriptions: a strategy plus the predicates a tutor needs.

An exercise bundles the rewrite strategy with detour rules, known buggy
rules, equivalence and similarity tests, readiness and suitability
predicates, a generator, and a total ordering on its major rules. A registry
maps exercise codes to descriptions and is built once at startup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import lint as lint_mod
from .navigation import bottom_up
from .powers import (
    ADD_EXP,
    BUG_ADD_EXP,
    DIST_EXP,
    MUL_EXP,
    RECI_EXP,
    eq_power,
    generate_power,
    is_ready,
    is_suitable,
    print_expr,
    sim_power,
)
from .strategy import (
    Label,
    LeftRecursionError,
    RewriteRule,
    Rule,
    Strategy,
    choice,
    repeat,
    rules_of,
)


class ExerciseError(Exception):
    pass


class UnknownCodeError(ExerciseError):
    def __init__(self, code: str):
        super().__init__("no exercise registered under %r" % code)
        self.code = code


class DuplicateCodeError(ExerciseError):
    def __init__(self, code: str):
        super().__init__("exercise code %r is already registered" % code)
        self.code = code


@dataclass(frozen=True)
class Exercise:
    """Everything the feedback services need to know about one task family."""

    code: str
    strategy: Strategy
    rule_set: tuple = ()  # sound rules outside the strategy, allowed as detours
    buggy_rules: tuple = ()
    equivalent: Callable = None
    similar: Callable = None
    suitable: Callable = None
    ready: Callable = None
    generator: Callable = None  # (difficulty, seed) -> term
    rule_order: tuple = ()  # major rule names, smallest first

    def strategy_rules(self) -> tuple:
        """Major rules appearing in the strategy tree, first occurrence order."""
        return tuple(r for r in rules_of(self.strategy) if not r.minor)

    def major_rules(self) -> tuple:
        """Majors of the strategy followed by the extra rule set, deduplicated."""
        out = {}
        for r in self.strategy_rules() + tuple(self.rule_set):
            if not r.minor:
                out.setdefault(r.key, r)
        return tuple(out.values())

    def order_key(self, rule: RewriteRule) -> int:
        try:
            return self.rule_order.index(rule.name)
        except ValueError:
            return len(self.rule_order)

    def find_rule(self, name: str) -> Optional[RewriteRule]:
        for r in self.major_rules():
            if r.name == name:
                return r
        return None


class Registry:
    """Exercise lookup by code. Built at startup, read-only afterwards."""

    def __init__(self, exercises: Iterable[Exercise] = ()):
        self._by_code = {}
        for ex in exercises:
            self.register(ex)

    def register(self, exercise: Exercise) -> "Registry":
        if exercise.code in self._by_code:
            raise DuplicateCodeError(exercise.code)
        self._by_code[exercise.code] = exercise
        return self

    def lookup(self, code: str) -> Exercise:
        try:
            return self._by_code[code]
        except KeyError:
            raise UnknownCodeError(code) from None

    def codes(self) -> tuple:
        return tuple(self._by_code)


def write_as_power_of() -> Strategy:
    """Normalize power expressions: the three sound laws, innermost first,
    repeated until none applies, under a label for trace bracketing."""
    rules = choice(Rule(ADD_EXP), Rule(MUL_EXP), Rule(DIST_EXP))
    return Label("powers", repeat(bottom_up(rules)))


def power_exercise() -> Exercise:
    return Exercise(
        code="powerExercise",
        strategy=write_as_power_of(),
        rule_set=(RECI_EXP,),
        buggy_rules=(BUG_ADD_EXP,),
        equivalent=eq_power,
        similar=sim_power,
        suitable=is_suitable,
        ready=is_ready,
        generator=generate_power,
        rule_order=("AddExp", "MulExp", "DistExp", "ReciExp"),
    )


def default_registry() -> Registry:
    return Registry([power_exercise()])


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ValidationEntry:
    check: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> tuple:
        return tuple(e for e in self.entries if not e.passed)


def validate(exercise: Exercise, samples: int = 20, seed: int = 0) -> ValidationReport:
    """Sanity-check an exercise description against its own contracts.

    Reports one entry per check instead of raising, so a deliberately broken
    exercise shows exactly which property it violates.
    """
    from . import services  # cycle: services builds on exercises

    entries = []

    def add(check, passed, detail=""):
        entries.append(ValidationEntry(check, bool(passed), detail))

    # the strategy must be executable at all
    try:
        report = lint_mod.lint_strategy(exercise.strategy)
        recursion = [f for f in report.findings if f.kind == "LeftRecursion"]
        add("strategy-left-recursion", not recursion,
            "; ".join(f.detail for f in recursion))
        factors = [f for f in report.findings if f.kind == "LeftFactor"]
        add("strategy-left-factors", not factors,
            "; ".join(f.detail for f in factors))
    except LeftRecursionError as exc:
        add("strategy-left-recursion", False, str(exc))

    majors = exercise.major_rules()
    unordered = [r.name for r in majors if r.name not in exercise.rule_order]
    add("rule-ordering-total", not unordered,
        "missing from ordering: %s" % ", ".join(unordered) if unordered else "")

    buggy_overlap = [r.name for r in exercise.buggy_rules if r in majors]
    add("buggy-rules-disjoint", not buggy_overlap,
        ", ".join(buggy_overlap))

    if exercise.generator is None:
        add("generator-present", False, "no generator")
        return ValidationReport(tuple(entries))
    add("generator-present", True)

    sound_witness = ""
    derivation_witness = ""
    starts_ok = True
    sound_ok = True
    buggy_breaks = False
    derivations_ok = True

    for i in range(samples):
        term = exercise.generator("medium", seed + i)
        if not (exercise.suitable(term) and not exercise.ready(term)):
            starts_ok = False
        for rule in majors:
            for rewritten in services.rule_results(rule, term):
                if not exercise.equivalent(term, rewritten):
                    sound_ok = False
                    sound_witness = "%s breaks %s" % (rule.name, print_expr(term))
        for rule in exercise.buggy_rules:
            for rewritten in services.rule_results(rule, term):
                if not exercise.equivalent(term, rewritten):
                    buggy_breaks = True
        try:
            state = services.initial_state(exercise, term)
            steps = services.derivation(exercise, state)
            final = services.focused_term(steps[-1].state) if steps else term
            if not exercise.ready(final):
                derivations_ok = False
                derivation_witness = "final %s not ready" % print_expr(final)
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            derivations_ok = False
            derivation_witness = "%s on %s" % (exc, print_expr(term))

    add("generated-starts-suitable", starts_ok)
    add("rules-preserve-equivalence", sound_ok, sound_witness)
    add("buggy-rules-break-equivalence", buggy_breaks,
        "" if buggy_breaks else "no sample separated the buggy rules", )
    add("derivations-finish-ready", derivations_ok, derivation_witness)

    return ValidationReport(tuple(entries))
