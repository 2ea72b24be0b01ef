"""The benchmark's workloads: what a seeded run sends to `serve`.

Each workload has a finite corpus of units. A unit is a short conversation,
written as a generator that yields request objects and receives each response
line before it yields the next request, the way a front end waits for answers.
A run's seed only picks the order in which corpus units are visited, so every
request any seed can send has a response recorded in golden.json. A serve
process answers one pass over the whole corpus, so every seed sends the same
mix of work and the run-to-run spread is the machine's, not the sample's.
"""

import itertools
import json
import random

import powerterms

EXERCISE = "powerExercise"

# Large enough that every power-scaling k completes; the default budget of
# 10,000 transitions runs out at k=6.
SCALING_BUDGET = "100000000"


def encode(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def wire_state(expr, strategy_ref="exerciseDefault"):
    return {"env": {"bindings": {}, "labelPath": []}, "expr": expr, "path": [],
            "start": expr, "strategyRef": strategy_ref, "trace": []}


def _ok(response):
    """The ok payload of a response line, or None for an error or bad line."""
    try:
        return json.loads(response).get("ok")
    except (ValueError, AttributeError):
        return None


def _shuffled(corpus_size, rng):
    while True:
        order = list(range(corpus_size))
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# tutor-session

DIFFICULTIES = ("easy", "medium", "hard")
EXERCISES_PER_DIFFICULTY = 15
MAX_SESSION_STEPS = 50


def _tutor_session(difficulty, exercise_seed):
    response = yield {"service": "generate", "exercise": EXERCISE,
                      "difficulty": difficulty, "seed": exercise_seed}
    ok = _ok(response)
    if ok is None:
        return
    start = state = ok["state"]
    for _ in range(MAX_SESSION_STEPS):
        ok = _ok((yield {"service": "ready", "exercise": EXERCISE, "state": state}))
        if ok is None or ok["ready"]:
            break
        yield {"service": "stepsremaining", "exercise": EXERCISE, "state": state}
        yield {"service": "allfirsts", "exercise": EXERCISE, "state": state}
        hint = _ok((yield {"service": "onefirst", "exercise": EXERCISE, "state": state}))
        if hint is None:
            return
        term = powerterms.parse(state["expr"])
        hinted = powerterms.parse(hint["state"]["expr"])
        location = next((p for p in powerterms.positions(term)
                         if powerterms.rewrite_at(hint["rule"], term, p) == hinted), None)
        if location is None:
            return  # the hint is no single rewrite of the term; the digest will say so
        submissions = [hint["state"]["expr"]]
        for rule in ("BugAddExp", "ReciExp"):
            found = powerterms.first_rewrite(rule, term)
            if found is not None:
                submissions.append(powerterms.show(found[1]))
        submissions.append(powerterms.show(("m", term, ("v", "z"))))
        for text in submissions:
            yield {"service": "diagnose", "exercise": EXERCISE, "state": state,
                   "expression": text}
        yield {"service": "applicable", "exercise": EXERCISE, "state": state,
               "location": list(location)}
        applied = _ok((yield {"service": "apply", "exercise": EXERCISE, "state": state,
                              "rule": hint["rule"], "location": list(location)}))
        if applied is None:
            return
        state = applied["state"]
    yield {"service": "derivation", "exercise": EXERCISE, "state": start}


class TutorSession:
    name = "tutor-session"
    corpus_size = len(DIFFICULTIES) * EXERCISES_PER_DIFFICULTY
    trace_units = corpus_size
    budget = None
    tail_percentile = 99
    tuning_seed, held_out_seed = 1, 1001

    @staticmethod
    def unit(index, position):
        difficulty = DIFFICULTIES[index // EXERCISES_PER_DIFFICULTY]
        return _tutor_session(difficulty, index % EXERCISES_PER_DIFFICULTY), None

    @staticmethod
    def final_rules(request):
        return powerterms.SOUND_LAWS


# ---------------------------------------------------------------------------
# power-scaling

SCALING_KS = tuple(range(3, 8))
SCALING_SERVICES = ("derivation", "onefirst", "stepsremaining")


def scaling_term(k):
    """(a*b)^2*(a*b)^3*...*(a*b)^(k+1)"""
    return "*".join("(a*b)^%d" % i for i in range(2, k + 2))


def _scaling_request(k, service):
    yield {"service": service, "exercise": EXERCISE, "state": wire_state(scaling_term(k))}


class PowerScaling:
    name = "power-scaling"
    corpus_size = len(SCALING_KS) * len(SCALING_SERVICES)
    trace_units = corpus_size
    budget = SCALING_BUDGET
    tail_percentile = 90
    tuning_seed, held_out_seed = 1, 1001

    @staticmethod
    def unit(index, position):
        k = SCALING_KS[index // len(SCALING_SERVICES)]
        return _scaling_request(k, SCALING_SERVICES[index % len(SCALING_SERVICES)]), None

    @staticmethod
    def final_rules(request):
        return powerterms.SOUND_LAWS


# ---------------------------------------------------------------------------
# author-strategies

def _once(s):
    return "Downs ; %s ; Up" % s


TRAVERSALS = {
    "somewhere": lambda s: "mu y . (%s) | %s" % (s, _once("y")),
    "bottom_up": lambda s: "mu y . %s | ~(%s) ; (%s)" % (_once("y"), _once("y"), s),
    "top_down": lambda s: "mu y . (%s) | ~(%s) ; %s" % (s, s, _once("y")),
}
WRAPS = {
    "repeat": lambda s: "mu x . (%s) ; x | ~((%s) ; x) ; succeed" % (s, s),
    "try": lambda s: "(%s) | ~(%s) ; succeed" % (s, s),
}
RULE_CHOICES = tuple(perm for n in (1, 2, 3)
                     for perm in itertools.permutations(powerterms.SOUND_LAWS, n))
SHAPES = tuple((t, w, r) for t in TRAVERSALS for w in WRAPS for r in RULE_CHOICES)
AUTHOR_TERMS = 6


def _author_terms():
    rng = random.Random("perfbench:author-terms")

    def factor():
        x, y = rng.choice(("a", "b")), rng.choice(("a", "b"))
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        return rng.choice((
            ("p", ("v", x), n),
            ("p", ("p", ("v", x), n), m),
            ("p", ("m", ("v", x), ("v", y)), n),
            ("p", ("m", ("p", ("v", x), n), ("p", ("v", x), m)), rng.randint(2, 5)),
        ))

    out = []
    while len(out) < AUTHOR_TERMS:
        e = factor()
        for _ in range(rng.randint(1, 2)):
            e = ("m", e, factor())
        text = powerterms.show(e)
        if text not in out:
            out.append(text)
    return tuple(out)


TERMS = _author_terms()


def author_strategy(shape_index, label):
    traversal, wrap, rules = SHAPES[shape_index]
    body = WRAPS[wrap](TRAVERSALS[traversal](" | ".join(rules)))
    return "%s: %s" % (label, body)


def _author_unit(strategy, term):
    yield {"service": "lint", "strategy": strategy}
    state = wire_state(term, {"term": strategy})
    yield {"service": "allfirsts", "exercise": EXERCISE, "state": state}
    yield {"service": "derivation", "exercise": EXERCISE, "state": state}


class AuthorStrategies:
    name = "author-strategies"
    corpus_size = len(SHAPES) * AUTHOR_TERMS
    trace_units = 180
    budget = None
    tail_percentile = 99
    tuning_seed, held_out_seed = 1, 1001

    @staticmethod
    def unit(index, position):
        # A label unique within the run makes every strategy a new value for
        # the program's caches; responses are compared with it masked.
        label = "Q%dz" % position
        shape, term = divmod(index, AUTHOR_TERMS)
        return _author_unit(author_strategy(shape, label), TERMS[term]), label

    @staticmethod
    def final_rules(request):
        """Sound laws the derivation must have exhausted: the strategy's own
        rules when it repeats its traversal, none when it tries it once."""
        text = request["state"]["strategyRef"]["term"]
        if ": mu x ." not in text:
            return ()
        return tuple(r for r in powerterms.SOUND_LAWS if r in text)


WORKLOADS = {w.name: w for w in (TutorSession, PowerScaling, AuthorStrategies)}

# probe sent first to every serve process; its response time is the set-up time
SETUP_PROBE = {"service": "generate", "exercise": EXERCISE, "difficulty": "easy", "seed": 0}


def unit_stream(workload, seed):
    """(position, corpus index) pairs in the seeded visiting order, unbounded."""
    rng = random.Random("perfbench:%s:%d" % (workload.name, seed))
    return enumerate(_shuffled(workload.corpus_size, rng))
