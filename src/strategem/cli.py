"""Command line front end: serve, interactive, lint, solve."""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

from . import protocol, services
from .exercise import Registry, UnknownCodeError, default_registry
from .lint import lint_strategy
from .navigation import NavigationError, replace_at, term_at, unfocus
from .powers import ParseError, parse, print_expr
from .protocol import TermParseError, parse_term
from .services import ServiceError
from .strategy import (
    BudgetExceededError,
    LeftRecursionError,
    State,
    with_step_budget,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strategem",
        description="Rewrite-strategy tutoring services over power expressions.",
    )
    parser.add_argument("--mode", choices=("serve", "interactive", "lint", "solve"),
                        default="serve")
    parser.add_argument("--exercise", default="powerExercise")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--difficulty", choices=("easy", "medium", "hard"),
                        default="medium")
    parser.add_argument("--budget", type=int, default=None,
                        help="abort any request after this many engine transitions")
    parser.add_argument("target", nargs="?", default=None,
                        help="expression (solve, interactive) or strategy term "
                             "or exercise code (lint)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    guard = with_step_budget(args.budget) if args.budget is not None else nullcontext()
    registry = default_registry()
    with guard:
        if args.mode == "serve":
            protocol.serve(registry=registry)
            return 0
        if args.mode == "lint":
            return _lint_mode(args, registry)
        if args.mode == "solve":
            return _solve_mode(args, registry)
        return _interactive_mode(args, registry)


def _lint_mode(args, registry: Registry) -> int:
    target = args.target if args.target is not None else args.exercise
    try:
        exercise = registry.lookup(target)
        strategy = exercise.strategy
    except UnknownCodeError:
        try:
            strategy = parse_term(target)
        except TermParseError as exc:
            print("parse error: %s" % exc, file=sys.stderr)
            return 2
    report = lint_strategy(strategy)
    for finding in report.findings:
        location = "[%s]" % ",".join(map(str, finding.path))
        suffix = "" if finding.certainty == "definite" else " (possible)"
        print("%s at %s: %s%s" % (finding.kind, location, finding.detail, suffix))
    if report.clean:
        print("clean")
        return 0
    return 1


def _start_state(args, registry: Registry) -> State:
    exercise = registry.lookup(args.exercise)
    if args.target is not None:
        term = parse(args.target)
        return services.initial_state(exercise, term)
    return services.generate(registry, args.exercise, args.difficulty, args.seed)


def _solve_mode(args, registry: Registry) -> int:
    try:
        state = _start_state(args, registry)
        exercise = registry.lookup(args.exercise)
        steps = services.derivation(exercise, state)
    except (ParseError, UnknownCodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ServiceError, BudgetExceededError, LeftRecursionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for step in steps:
        print("%s -> %s" % (step.rule.name, print_expr(unfocus(step.state.focus))))
    final = steps[-1].state if steps else state
    print("finished: %s" % print_expr(unfocus(final.focus)))
    return 0


def _parse_location(text: str) -> tuple:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return ()
    try:
        return tuple(int(part) for part in body.replace(",", " ").split())
    except ValueError:
        raise ValueError("bad location %r, expected something like [0,1]" % text) from None


_INTERACTIVE_HELP = """\
commands:
  hint               suggest the next rule and where to apply it
  steps              how many major steps remain
  apply RULE LOC     apply a rule at a location, e.g. apply MulExp [1]
  focus LOC          choose where submit rewrites, e.g. focus [0]
  submit EXPR        hand in the focused subterm rewritten to EXPR
  expr               show the current expression
  solve              show a full worked solution from here
  quit               leave"""


class _Session:
    """Interactive state: the engine state plus the submit target path.

    The submit path is a plain view on the term; it never touches the engine
    state, whose focus and remaining strategy must stay consistent.
    """

    def __init__(self, exercise, state: State):
        self.exercise = exercise
        self.state = state
        self.view_path: tuple = ()

    def term(self):
        return unfocus(self.state.focus)


def _interactive_mode(args, registry: Registry) -> int:
    try:
        exercise = registry.lookup(args.exercise)
        state = _start_state(args, registry)
    except (ParseError, UnknownCodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    session = _Session(exercise, state)
    print("exercise %s: %s" % (exercise.code, print_expr(session.term())))
    prompt = "> " if sys.stdin.isatty() else ""
    while True:
        if prompt:
            sys.stdout.write(prompt)
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            return 0
        words = line.strip().split(None, 1)
        if not words:
            continue
        command, rest = words[0], words[1] if len(words) > 1 else ""
        if command == "quit":
            return 0
        try:
            _interactive_command(session, command, rest)
        except (ServiceError, ParseError, ValueError, NavigationError,
                BudgetExceededError, LeftRecursionError) as exc:
            print("error: %s" % exc)


def _interactive_command(session: _Session, command: str, rest: str) -> None:
    exercise, state = session.exercise, session.state
    if command == "help":
        print(_INTERACTIVE_HELP)
    elif command == "expr":
        print(print_expr(session.term()))
    elif command == "hint":
        try:
            candidate = services.onefirst(exercise, state)
        except services.NoStepAvailableError:
            print("already finished" if services.ready(exercise, state)
                  else "no step available")
            return
        path = candidate.state.focus.path
        print("%s at [%s]" % (candidate.rule.name, ",".join(map(str, path))))
    elif command == "steps":
        print(services.stepsremaining(exercise, state))
    elif command == "solve":
        steps = services.derivation(exercise, state)
        for step in steps:
            print("%s -> %s" % (step.rule.name, print_expr(unfocus(step.state.focus))))
        if not steps:
            print("already finished")
    elif command == "apply":
        parts = rest.split(None, 1)
        if len(parts) != 2:
            print("usage: apply RULE LOC")
            return
        new_state = services.apply(exercise, parts[0], _parse_location(parts[1]), state)
        session.state = services.adopt_step(exercise, state, parts[0], new_state)
        session.view_path = ()
        print(print_expr(session.term()))
    elif command == "focus":
        path = _parse_location(rest)
        term_at(session.term(), path)  # raises on a bad path
        session.view_path = path
    elif command == "submit":
        _handle_submit(session, rest)
    else:
        print("unknown command %r, try help" % command)


def _handle_submit(session: _Session, rest: str) -> None:
    exercise, state = session.exercise, session.state
    submitted = parse(rest.strip())
    full = replace_at(session.term(), session.view_path, submitted)
    result = services.diagnose(exercise, state, full)
    print(result.kind if result.rule is None else "%s (%s)" % (result.kind, result.rule))
    if result.kind == "Expected":
        session.state = result.state
        session.view_path = ()
    elif result.kind in ("Detour", "Correct"):
        # the term changed in a way the strategy did not anticipate; restart
        # the strategy on the new term so hints keep working
        session.state = services.initial_state(exercise, full)
        session.view_path = ()
