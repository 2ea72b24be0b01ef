"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] verdict line on the terminal, outside
pytest's capture, so a full run reads as a checklist. Expected values are
verified against independent oracles (positional rewriting, norm comparison,
exhaustive state search) rather than echoes of the implementation.
"""

import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import initial, random_toy_strategy, random_toy_term
from support import language_upto, recognize, run
from strategem import cli, services
from strategem.exercise import default_registry, power_exercise
from strategem.lint import lint_strategy
from strategem.navigation import apply_at, down_rule, positions, somewhere, unfocus
from strategem.powers import (
    ADD_EXP,
    DIST_EXP,
    MUL_EXP,
    norm_power,
    parse,
    print_expr,
)
from strategem.strategy import (
    Budget,
    BudgetExceededError,
    Label,
    LeftRecursionError,
    Rec,
    Rule,
    Seq,
    Var,
    choice,
    nullable,
    repeat,
    seq,
    split,
    state_sort_key,
    step,
)

EX = power_exercise()


def verdict(capsys, number, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print("[FAIL] criterion %2d: %s" % (number, label))
        raise
    with capsys.disabled():
        print("[PASS] criterion %2d: %s" % (number, label))


def shown(state):
    return print_expr(unfocus(state.focus))


def one_step_images(term, rules):
    """Every single positional rewrite of term, as (rule name, printed result)."""
    out = set()
    for rule in rules:
        for path in positions(term):
            for result in apply_at(rule, term, path):
                out.add((rule.name, print_expr(result)))
    return out


# ---------------------------------------------------------------------------

def test_01_worked_derivation_with_full_trace(capsys):
    def body():
        t0 = time.monotonic()
        state = services.initial_state(EX, parse("(a^3*a^4)^2"))
        steps = services.derivation(EX, state)
        assert [s.rule.name for s in steps] == ["AddExp", "MulExp"]
        assert shown(steps[-1].state) == "a^14"
        full_trace = tuple(name for s in steps for name in s.trace)
        assert full_trace == (
            "Enter(powers)", "Down", "AppCheck", "AddExp",
            "Up", "AppCheck", "MulExp",
            "AppCheck", "Leave(powers)",
        )
        assert time.monotonic() - t0 < 1.0

    verdict(capsys, 1, "derivation of (a^3*a^4)^2 with its transition trace", body)


def two_branch_state():
    strategy = choice(
        seq(somewhere(Rule(ADD_EXP)), Rule(MUL_EXP)),
        seq(Rule(DIST_EXP), repeat(Rule(MUL_EXP)), Rule(ADD_EXP)),
    )
    state = services.initial_state(EX, parse("(a^3*a^4)^2"))
    return dataclasses.replace(state, remaining=strategy)


def test_02_two_branch_strategy_offers_exactly_two_first_steps(capsys):
    def body():
        candidates = services.allfirsts(EX, two_branch_state())
        assert [(c.rule.name, shown(c.state)) for c in candidates] == [
            ("AddExp", "(a^7)^2"),
            ("DistExp", "(a^3)^2*(a^4)^2"),
        ]

    verdict(capsys, 2, "a two-branch strategy yields exactly two candidate steps", body)


def test_03_preferred_candidate_follows_the_rule_ordering(capsys):
    def body():
        candidate = services.onefirst(EX, two_branch_state())
        assert candidate.rule.name == "AddExp"
        assert shown(candidate.state) == "(a^7)^2"

    verdict(capsys, 3, "the hint picks AddExp under the exercise rule ordering", body)


def test_04_positional_apply_keeps_focus_on_the_rewrite(capsys):
    def body():
        state = services.initial_state(EX, parse("(a^3)^2*(a^4)^2"))
        applied = services.apply(EX, "MulExp", (1,), state)
        assert shown(applied) == "(a^3)^2*a^8"
        assert applied.focus.path == (1,)
        # cross-check against the positional rewriter
        assert print_expr(apply_at(EX.find_rule("MulExp"),
                                   parse("(a^3)^2*(a^4)^2"), (1,))[0]) \
            == "(a^3)^2*a^8"

    verdict(capsys, 4, "apply MulExp at [1] rewrites in place and keeps the focus", body)


def test_05_all_six_diagnosis_kinds(capsys):
    def body():
        def diagnose(current, submitted):
            state = services.initial_state(EX, parse(current))
            d = services.diagnose(EX, state, parse(submitted))
            return d.kind, d.rule

        sound_rules = EX.major_rules()
        equivalent = lambda a, b: norm_power(parse(a)) == norm_power(parse(b))

        # not equivalent, and no buggy rewrite produces it: plain wrong
        assert not equivalent("(a^3*a^4)^2", "a^13")
        buggy_images = one_step_images(parse("(a^3*a^4)^2"), EX.buggy_rules)
        assert all(not equivalent(img, "a^13") for _, img in buggy_images)
        assert diagnose("(a^3*a^4)^2", "a^13") == ("NotEq", None)

        # matches exactly one buggy rewrite of the current term
        buggy_images = one_step_images(parse("a^3*a^4"), EX.buggy_rules)
        assert buggy_images == {("BugAddExp", "a^12")}
        assert not equivalent("a^3*a^4", "a^12")
        assert diagnose("a^3*a^4", "a^12") == ("Buggy", "BugAddExp")

        # no change at all
        assert diagnose("a^3*a^4", "a^3*a^4") == ("Similar", None)

        # literally the strategy's next step
        assert ("AddExp", "(a^7)^2") in one_step_images(parse("(a^3*a^4)^2"),
                                                        sound_rules)
        assert diagnose("(a^3*a^4)^2", "(a^7)^2") == ("Expected", "AddExp")

        # a sound rewrite the strategy would never take: the strategy is
        # already finished on a^5, yet ReciExp still fires positionally
        assert services.allfirsts(EX, services.initial_state(EX, parse("a^5"))) == []
        assert one_step_images(parse("a^5"), sound_rules) == {("ReciExp", "1/a^-5")}
        assert diagnose("a^5", "1/a^-5") == ("Detour", "ReciExp")

        # equivalent but not reachable in one known rewrite: a leap
        images = one_step_images(parse("(a^3*a^4)^2"), sound_rules) | \
            one_step_images(parse("(a^3*a^4)^2"), EX.buggy_rules)
        assert equivalent("(a^3*a^4)^2", "a^14")
        assert all(img != "a^14" for _, img in images)
        assert diagnose("(a^3*a^4)^2", "a^14") == ("Correct", None)

    verdict(capsys, 5, "diagnose separates NotEq/Buggy/Similar/Expected/Detour/Correct", body)


def test_06_lint_verdicts_and_cli_exit_codes(capsys):
    def body():
        A, M, D = Rule(ADD_EXP), Rule(MUL_EXP), Rule(DIST_EXP)

        left_recur = Rec("x", Seq(Var("x"), A))
        for mode in ("transparent", "opaque"):
            findings = lint_strategy(left_recur, mode).findings
            assert any(f.kind == "LeftRecursion" and f.certainty == "definite"
                       for f in findings), mode

        # a plain down move consumes no input in transparent mode only
        guarded = Rec("x", seq(Rule(down_rule(0)), Var("x"), A))
        assert any(f.kind == "LeftRecursion"
                   for f in lint_strategy(guarded, "transparent").findings)
        assert lint_strategy(guarded, "opaque").clean

        shared_prefix = choice(Label("l1", Seq(A, M)), Label("l2", Seq(A, D)))
        factors = [f for f in lint_strategy(shared_prefix).findings
                   if f.kind == "LeftFactor"]
        assert factors and "AddExp" in factors[0].detail
        assert factors[0].certainty == "definite"

        assert lint_strategy(Seq(A, choice(M, D))).clean
        for mode in ("transparent", "opaque"):
            assert lint_strategy(EX.strategy, mode).clean

        # the lint subcommand turns those verdicts into exit codes
        def lint_cli(target):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["--mode", "lint", target])
            return code

        assert lint_cli("AddExp ; (MulExp | DistExp)") == 0
        assert lint_cli("mu x . x ; AddExp") == 1
        assert lint_cli("mu . x") == 2

    verdict(capsys, 6, "lint flags left recursion and left factors; CLI exits 0/1/2", body)


@pytest.fixture(scope="module")
def seeded_runs():
    registry = default_registry()
    exercise = registry.lookup("powerExercise")
    t0 = time.monotonic()
    runs = []
    for seed in range(500):
        difficulty = ("easy", "medium", "hard")[seed % 3]
        state = services.generate(registry, "powerExercise", difficulty, seed)
        runs.append((seed, state, services.derivation(exercise, state)))
    return exercise, runs, time.monotonic() - t0


def test_07_five_hundred_generated_exercises_derive_and_recognize(capsys, seeded_runs):
    def body():
        exercise, runs, generation_time = seeded_runs
        t0 = time.monotonic()
        for seed, state, steps in runs:
            assert steps, "seed %d produced a finished start" % seed
            names = [s.rule.name for s in steps]
            assert recognize(exercise.strategy, names, state), seed
        elapsed = generation_time + (time.monotonic() - t0)
        assert elapsed < 30.0, "took %.1fs" % elapsed
        assert len(runs) == 500

    verdict(capsys, 7, "500 seeded exercises solve and their traces are recognized", body)


def test_08_every_generated_derivation_is_sound_and_hints_agree(capsys, seeded_runs):
    def body():
        exercise, runs, _ = seeded_runs

        def preferred(cands):
            # the documented candidate ordering, recomputed independently
            return min(cands, key=lambda c: (
                exercise.order_key(c.rule), c.rule.name,
                len(c.state.focus.path), c.state.focus.path,
                state_sort_key(c.state)))

        for seed, state, steps in runs:
            start = unfocus(state.focus)
            assert exercise.suitable(start) and not exercise.ready(start), seed
            previous = start
            for s in steps:
                current = unfocus(s.state.focus)
                assert exercise.equivalent(previous, current), seed
                previous = current
            assert exercise.ready(previous), seed
            for here in [state] + [s.state for s in steps[:-1]]:
                candidates = services.allfirsts(exercise, here)
                assert candidates, seed
                assert services.onefirst(exercise, here) == preferred(candidates)

    verdict(capsys, 8, "those runs start suitable, stay equivalent, finish ready; "
                       "onefirst is the ordering minimum", body)


def test_09_small_step_search_agrees_with_big_step_runs(capsys):
    def body():
        def reachable_ends(state, budget):
            # exhaustive small-step search; an end is any reachable state
            # whose remaining strategy accepts the empty sentence outright
            seen = {state}
            frontier = [state]
            ends = set()
            while frontier:
                st = frontier.pop()
                if nullable(st.remaining):
                    ends.add((st.env, st.focus))
                for _, successor in step(st, budget):
                    if successor not in seen:
                        seen.add(successor)
                        frontier.append(successor)
            return ends

        t0 = time.monotonic()
        rng = random.Random("acceptance:search")
        checked = skipped = 0
        while checked < 200:
            assert skipped < 2000, "too many unbounded samples"
            strategy = random_toy_strategy(rng)
            state = initial(random_toy_term(rng), strategy)
            try:
                small = reachable_ends(state, Budget(4000))
                big = {(e.env, e.focus) for e in run(state, Budget(4000))}
                heads = split(strategy)
                whole = set(language_upto(strategy, 4, max_unroll=8,
                                          node_budget=200_000)) - {()}
                by_head = {(atom,) + tail
                           for atom, rest in heads
                           for tail in language_upto(rest, 3, max_unroll=8,
                                                     node_budget=200_000)}
            except (BudgetExceededError, LeftRecursionError):
                skipped += 1
                continue
            assert small == big, strategy
            assert whole == by_head, strategy
            checked += 1
        assert time.monotonic() - t0 < 60.0

    verdict(capsys, 9, "200 random strategies: exhaustive search matches run(), "
                       "and sentences factor through split()", body)


def test_10_serve_sessions_are_byte_identical_across_processes(capsys):
    def body():
        def wire(expr):
            return {"env": {"bindings": {}, "labelPath": []}, "expr": expr,
                    "path": [], "strategyRef": "exerciseDefault",
                    "start": expr, "trace": []}

        requests = []
        for seed in range(4):
            requests.append({"service": "generate", "exercise": "powerExercise",
                             "difficulty": ("easy", "medium", "hard")[seed % 3],
                             "seed": seed})
        for expr in ("(a^3*a^4)^2", "(a^2*a^3)*(b^2*b^3)", "1/(a^2*b^3)",
                     "(a^3)^2*(a^4)^2"):
            requests.append({"service": "allfirsts", "exercise": "powerExercise",
                             "state": wire(expr)})
            requests.append({"service": "derivation", "exercise": "powerExercise",
                             "state": wire(expr)})
            requests.append({"service": "stepsremaining",
                             "exercise": "powerExercise", "state": wire(expr)})
        requests.extend([
            {"service": "onefirst", "exercise": "powerExercise",
             "state": wire("(a^3*a^4)^2")},
            {"service": "ready", "exercise": "powerExercise", "state": wire("a^14")},
            {"service": "apply", "exercise": "powerExercise", "rule": "AddExp",
             "location": [0], "state": wire("(a^3*a^4)^2")},
            {"service": "applicable", "exercise": "powerExercise",
             "state": wire("(a^3*a^4)^2"), "location": []},
            {"service": "diagnose", "exercise": "powerExercise",
             "state": wire("a^3*a^4"), "expression": "a^12"},
            {"service": "lint", "exercise": "powerExercise"},
            {"service": "lint", "strategy": "(mu x . Downs ; x) | AddExp"},
            {"service": "onefirst", "exercise": "powerExercise",
             "state": wire("a^14")},
            {"service": "frobnicate", "exercise": "powerExercise"},
        ])
        assert len(requests) == 25
        payload = "".join(json.dumps(r) + "\n" for r in requests).encode()

        transcripts = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "strategem", "--mode", "serve"],
                input=payload, capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            transcripts.append(proc.stdout)
        assert len(transcripts[0].splitlines()) == 25
        assert transcripts[0] == transcripts[1]
        # every response is a canonical single-line JSON document
        for line in transcripts[0].splitlines():
            decoded = json.loads(line)
            assert line.decode() == json.dumps(decoded, sort_keys=True,
                                               separators=(",", ":"))

    verdict(capsys, 10, "a 25-request serve session replays byte-identically", body)
