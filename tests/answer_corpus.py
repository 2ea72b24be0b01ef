"""Differential answer corpus: the engine's answers on a fixed seeded corpus.

    PYTHONPATH=src python tests/answer_corpus.py [SAMPLE_ID ...]

Run from the root of a checkout whose answers are the reference; it writes
tests/answer_corpus.json, which tests/test_answer_corpus.py checks every
answer against. Given sample ids (such as toy:69), it re-records only
those and keeps every other entry. Four groups of samples:

- toy: seeded random_toy_strategy/random_toy_term samples, every tenth
  followed by a trailing minor loop (LOOP_TAIL);
- nav: the same shapes over a vocabulary with raw Up/Left/Right/Down(i)/
  Downs atoms, started at a random position of the term;
- inner: started at a Power, Mul or Recip node, where a toy rule applies,
  with that rule followed by a random toy strategy. Most toy and nav
  samples have no big step at all; these have one, and their end states
  run the random strategy on a rewritten node;
- power: derivation and allfirsts from generated easy, medium and hard
  exercises, seeds 0-499.

A toy or nav answer is big_step_traced from the start state and from up to
five of its end states. States are written with print_expr, print_term, the
focus path and the environment's fields; an error is written as its class
and message. Each answer is kept as a short digest, and the transitions it
charged (Budget.used) are kept apart from it, so a change of cost shows
without counting as a change of answer.
"""

import base64
import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

from conftest import (
    DEC,
    KEEP_LEFT,
    NAV_ATOMS,
    TOY_LEAVES,
    UNWRAP,
    initial,
    random_toy_strategy,
    random_toy_term,
)
from strategem import services
from strategem.exercise import power_exercise
from strategem.navigation import (
    DOWNS,
    UP,
    focus_at,
    positions,
    term_at,
    unfocus,
)
from strategem.powers import Mul, Power, Recip, generate_power, print_expr
from strategem.protocol import print_term
from strategem.strategy import (
    Budget,
    Choice,
    Rec,
    Rule,
    Seq,
    State,
    StrategyError,
    Var,
    big_step_traced,
    seq,
    state_sort_key,
)

CORPUS = Path(__file__).with_name("answer_corpus.json")

TOY_SAMPLES = 3000
NAV_SAMPLES = 2000
INNER_SAMPLES = 1000
POWER_SEEDS = range(500)
DIFFICULTIES = ("easy", "medium", "hard")
SAMPLE_BUDGET = 20_000
ENDS_PER_SAMPLE = 5

# a minor loop with one exit: shuttle down and up again, or go up and finish
LOOP_TAIL = Rec("q", Choice(seq(Rule(DOWNS), Rule(UP), Var("q")), Rule(UP)))

# random_toy_strategy's leaves plus raw navigation atoms
NAV_LEAVES = TOY_LEAVES + NAV_ATOMS


def toy_sample(index: int) -> State:
    rng = random.Random("toy:%d" % index)
    strategy = random_toy_strategy(rng)
    term = random_toy_term(rng)
    if index % 10 == 9:
        strategy = Seq(strategy, LOOP_TAIL)
    return initial(term, strategy)


def nav_sample(index: int) -> State:
    rng = random.Random("nav:%d" % index)
    strategy = random_toy_strategy(rng, leaves=NAV_LEAVES)
    term = random_toy_term(rng)
    start = initial(term, strategy)
    path = rng.choice(positions(term))
    return State(start.env, focus_at(start.focus, path), strategy)


# the toy rule that applies at each kind of inner node
RULE_AT = {Power: Rule(DEC), Mul: Rule(KEEP_LEFT), Recip: Rule(UNWRAP)}


def inner_sample(index: int) -> State:
    rng = random.Random("inner:%d" % index)
    strategy = random_toy_strategy(rng)
    term = random_toy_term(rng)
    while type(term) not in RULE_AT:
        term = random_toy_term(rng)
    path = rng.choice([p for p in positions(term) if type(term_at(term, p)) in RULE_AT])
    start = initial(term, Seq(RULE_AT[type(term_at(term, path))], strategy))
    return State(start.env, focus_at(start.focus, path), start.remaining)


def show_state(state: State) -> list:
    env = state.env
    return [[list(pair) for pair in env.bindings], list(env.label_path),
            list(state.focus.path), print_expr(unfocus(state.focus)),
            print_term(state.remaining)]


def show_error(exc: Exception) -> list:
    return ["error", type(exc).__name__, str(exc)]


def big_step_answers(state: State) -> tuple:
    """big_step_traced from state and from up to five of its end states."""
    answers, used = [], []
    starts = [state]
    while starts:
        st = starts.pop(0)
        budget = Budget(SAMPLE_BUDGET)
        try:
            results = big_step_traced(st, budget)
        except StrategyError as exc:
            answers.append(show_error(exc))
        else:
            answers.append([[r.name, show_state(end), list(trace)]
                            for r, end, trace in results])
            if st is state:
                ends = sorted({end for _, end, _ in results}, key=state_sort_key)
                starts.extend(ends[:ENDS_PER_SAMPLE])
        used.append(budget.used)
    return answers, used


def _candidates(candidates) -> list:
    return [[c.rule.name, show_state(c.state), list(c.trace)] for c in candidates]


@lru_cache(maxsize=None)
def power_answers(term) -> tuple:
    """derivation and allfirsts from the start of the power exercise on term.

    Generated exercises repeat terms (the 500 easy seeds give 98), and each
    distinct term is solved once.
    """
    exercise = power_exercise()
    state = services.initial_state(exercise, term)
    answers, used = [], []
    for service in (services.derivation, services.allfirsts):
        budget = Budget()
        try:
            answers.append(_candidates(service(exercise, state, budget)))
        except (StrategyError, services.ServiceError) as exc:
            answers.append(show_error(exc))
        used.append(budget.used)
    return answers, used


def samples():
    """Every sample of the corpus as (id, thunk giving (answer, used))."""
    for i in range(TOY_SAMPLES):
        yield "toy:%d" % i, lambda i=i: big_step_answers(toy_sample(i))
    for i in range(NAV_SAMPLES):
        yield "nav:%d" % i, lambda i=i: big_step_answers(nav_sample(i))
    for i in range(INNER_SAMPLES):
        yield "inner:%d" % i, lambda i=i: big_step_answers(inner_sample(i))
    for difficulty in DIFFICULTIES:
        for seed in POWER_SEEDS:
            yield ("power:%s:%d" % (difficulty, seed),
                   lambda d=difficulty, s=seed: power_answers(generate_power(d, s)))


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return base64.b64encode(hashlib.sha256(text.encode()).digest()[:9]).decode()


def compute(only=None) -> dict:
    """{sample id: (answer digest, used counts)}, over the samples in only or all."""
    out = {}
    for sample_id, thunk in samples():
        if only is None or sample_id in only:
            answer, used = thunk()
            out[sample_id] = (digest(answer), used)
    return out


def _dump(data: dict) -> str:
    # one sample a line, so a re-recording shows as a readable diff
    def table(entries):
        return ",\n".join("%s:%s" % (json.dumps(k), json.dumps(v, separators=(",", ":")))
                          for k, v in sorted(entries.items()))
    return '{"answers":{\n%s\n},\n"used":{\n%s\n}}\n' % (
        table(data["answers"]), table(data["used"]))


def main(argv) -> int:
    """Record every sample, or with sample ids as arguments only those."""
    data = {"answers": {}, "used": {}}
    if argv:
        data = json.loads(CORPUS.read_text())
    computed = compute(set(argv) if argv else None)
    unknown = set(argv) - set(computed)
    if unknown:
        print("no such samples: %s" % ", ".join(sorted(unknown)))
        return 2
    for sample_id, (answer, used) in computed.items():
        data["answers"][sample_id] = answer
        data["used"][sample_id] = used
    CORPUS.write_text(_dump(data))
    print("recorded %d samples into %s" % (len(computed), CORPUS.name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
