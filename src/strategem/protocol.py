"""JSON-lines protocol: one request per line in, one response per line out.

Requests name a service, an exercise, and usually a state. Responses are
{"ok": ...} or {"error": {"code": ..., "message": ...}} and are serialized
canonically (sorted keys, no whitespace) so identical sessions produce
byte-identical transcripts.

A wire state carries the environment, the current expression text, the focus
path, a strategy reference, the start expression, and the major-rule trace so
far. The remaining strategy is not serialized; it is reconstructed by
replaying the trace against the referenced strategy from the start
expression. When the trace left the strategy (free-form rule applications),
the longest replayable prefix wins and the expression text still overrides,
so the services keep answering on the student's actual term.

`serve` replays each trace prefix once per process: the registry keeps a
bounded LRU of replayed levels, so a trace one rule longer than one seen
before costs one big step. Each response is still a function of its own
line. A memo entry also holds what the replay charged to the request's
budget, and a hit charges it again, so transition counts, budget-exceeded
boundaries and check-memo contents are those of a cold replay. The
registry also keeps the last parsed strategy texts (strategy_term), so the
requests that name one text share one tree and the facts kept on its nodes.
"""

from __future__ import annotations

import io
import json
import re
import sys
from typing import Optional, TextIO

from . import services
from .exercise import Exercise, Registry, UnknownCodeError, default_registry
from .lint import lint_strategy
from .navigation import (
    DOWNS,
    LEFT,
    RIGHT,
    UP,
    NavigationError,
    down_env_rule,
    down_rule,
    focus_root,
    unfocus,
)
from .powers import MAX_EXPONENT_DIGITS, POWER_RULES, ParseError, parse, print_expr
from .services import (
    InvalidLocationError,
    NoGeneratorError,
    NoStepAvailableError,
    RuleNotApplicableError,
    StuckError,
)
from .strategy import (
    Budget,
    BudgetExceededError,
    Check,
    Choice,
    Environment,
    Fail,
    Label,
    LeftRecursionError,
    Rec,
    Rule,
    Seq,
    State,
    Strategy,
    Succeed,
    Var,
    big_step,
    choice,
    enter_rule,
    leave_rule,
    seq,
    state_sort_key,
)

EXERCISE_DEFAULT_REF = "exerciseDefault"


# ---------------------------------------------------------------------------
# concrete strategy syntax

class TermParseError(ValueError):
    pass


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[();|~:.@]|\S")


def default_rule_table() -> dict:
    rules = list(POWER_RULES) + [UP, DOWNS, LEFT, RIGHT]
    return {r.term_name or r.name: r for r in rules}


class _TermParser:
    # strategy := IDENT ':' strategy | 'mu' IDENT '.' strategy | choice
    # choice   := seq ('|' seq)*
    # seq      := prefix (';' prefix)*
    # prefix   := '~' prefix | atom
    # atom     := 'succeed' | 'fail' | '(' strategy ')' | name [ '(' arg ')' ]

    def __init__(self, text: str, table: dict):
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.table = table

    def parse(self) -> Strategy:
        s = self.strategy(frozenset())
        if self.pos != len(self.tokens):
            raise TermParseError("unexpected %r" % self.tokens[self.pos])
        return s

    def peek(self, offset: int = 0) -> Optional[str]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def take(self, expected: str = None) -> str:
        tok = self.peek()
        if tok is None:
            raise TermParseError("unexpected end of strategy term")
        if expected is not None and tok != expected:
            raise TermParseError("expected %r, got %r" % (expected, tok))
        self.pos += 1
        return tok

    def strategy(self, bound: frozenset) -> Strategy:
        tok = self.peek()
        if tok == "mu":
            self.take()
            var = self.take()
            if not var.isidentifier():
                raise TermParseError("bad recursion variable %r" % var)
            self.take(".")
            return Rec(var, self.strategy(bound | {var}))
        if tok is not None and tok.isidentifier() and self.peek(1) == ":":
            name = self.take()
            self.take(":")
            return Label(name, self.strategy(bound))
        return self.choice(bound)

    def choice(self, bound: frozenset) -> Strategy:
        parts = [self.seq(bound)]
        while self.peek() == "|":
            self.take()
            parts.append(self.seq(bound))
        return choice(*parts)

    def seq(self, bound: frozenset) -> Strategy:
        parts = [self.prefix(bound)]
        while self.peek() == ";":
            self.take()
            parts.append(self.prefix(bound))
        return seq(*parts)

    def prefix(self, bound: frozenset) -> Strategy:
        if self.peek() == "~":
            self.take()
            return Check(self.prefix(bound))
        return self.atom(bound)

    def atom(self, bound: frozenset) -> Strategy:
        tok = self.peek()
        if tok == "(":
            self.take()
            s = self.strategy(bound)
            self.take(")")
            return s
        if tok is None or not tok.isidentifier():
            raise TermParseError("expected a rule, variable or '(', got %r" % tok)
        name = self.take()
        if name == "succeed":
            return Succeed()
        if name == "fail":
            return Fail()
        if name in bound:
            return Var(name)
        if self.peek() == "(":
            self.take()
            arg = self.take()
            if name == "Down" and arg.isdigit():
                self.take(")")
                return Rule(down_rule(int(arg)))
            if name == "Down" and arg == "@":
                key = self.take()
                self.take(")")
                return Rule(down_env_rule(key))
            if name == "Enter" and arg.isidentifier():
                self.take(")")
                return Rule(enter_rule(arg))
            if name == "Leave" and arg.isidentifier():
                self.take(")")
                return Rule(leave_rule(arg))
            raise TermParseError("bad rule form %s(%s)" % (name, arg))
        rule = self.table.get(name)
        if rule is None:
            raise TermParseError("unknown rule %r" % name)
        return Rule(rule)


def parse_term(text: str, table: dict = None) -> Strategy:
    """Parse the concrete strategy syntax against a rule name table."""
    parser = _TermParser(text, table if table is not None else default_rule_table())
    try:
        return parser.parse()
    except RecursionError:
        raise TermParseError("strategy term nested too deeply") from None


# parsed strategy texts one registry keeps; at most this many, least recent dropped
TERM_MEMO_SIZE = 32


def strategy_term(text: str, memo=None) -> Strategy:
    """parse_term(text), shared through memo, a registry's `terms` LRU.

    Requests that name one text then share one tree and the facts kept on
    its nodes: splits and analyses. parse_term is a pure function of the
    text, nodes are immutable and every kept fact is a function of its node,
    so sharing changes no answer. A text that fails to parse is not stored.
    """
    if memo is None:
        return parse_term(text)
    s = memo.get(text)
    if s is None:
        s = memo[text] = parse_term(text)
        if len(memo) > TERM_MEMO_SIZE:
            memo.popitem(last=False)
    else:
        memo.move_to_end(text)
    return s


def print_term(s: Strategy) -> str:
    """Render a strategy in the concrete syntax, fewest parentheses that
    preserve the tree shape."""
    # levels: 0 label and mu bodies, 1 choice, 2 sequence, 3 prefix, 4 atoms
    def go(node, level):
        t = type(node)
        if t is Label:
            text, mine = "%s: %s" % (node.name, go(node.body, 0)), 0
        elif t is Rec:
            text, mine = "mu %s . %s" % (node.var, go(node.body, 0)), 0
        elif t is Choice:
            text, mine = "%s | %s" % (go(node.left, 2), go(node.right, 1)), 1
        elif t is Seq:
            text, mine = "%s ; %s" % (go(node.left, 3), go(node.right, 2)), 2
        elif t is Check:
            text, mine = "~%s" % go(node.inner, 4), 3
        elif t is Rule:
            text, mine = node.rule.term_name or node.rule.name, 4
        elif t is Succeed:
            text, mine = "succeed", 4
        elif t is Fail:
            text, mine = "fail", 4
        elif t is Var:
            text, mine = node.name, 4
        else:
            raise TypeError("not a strategy node: %r" % (node,))
        return "(%s)" % text if mine < level else text

    return go(s, 0)


# ---------------------------------------------------------------------------
# wire states

class WireFormatError(ValueError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WireFormatError(message)


def serialize_state(state: State, strategy_ref, start: str, trace) -> dict:
    return {
        "env": {
            "bindings": dict(state.env.bindings),
            "labelPath": list(state.env.label_path),
        },
        "expr": print_expr(unfocus(state.focus)),
        "path": list(state.focus.path),
        "strategyRef": strategy_ref,
        "start": start,
        "trace": list(trace),
    }


def _parse_env(raw) -> Environment:
    _require(isinstance(raw, dict), "env must be an object")
    _require(set(raw) <= {"bindings", "labelPath"}, "unknown env fields")
    bindings = raw.get("bindings", {})
    label_path = raw.get("labelPath", [])
    _require(isinstance(bindings, dict), "env.bindings must be an object")
    _require(all(isinstance(k, str) and isinstance(v, str)
                 for k, v in bindings.items()), "env bindings must map strings to strings")
    _require(isinstance(label_path, list) and all(isinstance(x, str) for x in label_path),
             "env.labelPath must be a list of strings")
    env = Environment(tuple(sorted(bindings.items())))
    for name in label_path:
        env = env.push_label(name)
    return env


def _resolve_strategy_ref(ref, exercise: Exercise, terms=None) -> Strategy:
    if ref == EXERCISE_DEFAULT_REF:
        return exercise.strategy
    if isinstance(ref, dict) and set(ref) == {"term"} and isinstance(ref["term"], str):
        try:
            return strategy_term(ref["term"], terms)
        except TermParseError as exc:
            raise WireFormatError("bad strategy term: %s" % exc) from None
    raise WireFormatError("strategyRef must be %r or {\"term\": ...}" % EXERCISE_DEFAULT_REF)


# the fields of a wire state, in the order serialize_state writes them
_STATE_FIELDS = ("env", "expr", "path", "strategyRef", "start", "trace")


def _index_path(raw, name: str) -> tuple:
    _require(isinstance(raw, list) and all(type(i) is int and i >= 0 for i in raw),
             "%s must be a list of non-negative integers" % name)
    return tuple(raw)


def deserialize_state(wire, exercise: Exercise, budget: Budget = None, memo=None,
                      terms=None):
    """Rebuild a full state from its wire form.

    Returns (state, strategy_ref, start, trace). The remaining strategy comes
    from replaying the trace; the environment, focus path and expression text
    in the wire take precedence over the replayed values. memo, when given,
    is a registry's `replays` LRU. It is used only with a fresh budget
    (nothing used, no check outcomes), because its entries record what a
    replay did to a fresh budget. terms, when given, is a registry's `terms`
    LRU (see strategy_term).
    """
    _require(isinstance(wire, dict), "state must be an object")
    unknown = set(wire) - set(_STATE_FIELDS)
    _require(not unknown, "unknown state fields: %s" % ", ".join(sorted(unknown)))
    for field in _STATE_FIELDS:
        _require(field in wire, "state is missing %r" % field)
    _require(isinstance(wire["expr"], str), "expr must be a string")
    _require(isinstance(wire["start"], str), "start must be a string")
    path = _index_path(wire["path"], "path")
    trace = wire["trace"]
    _require(isinstance(trace, list) and all(isinstance(t, str) for t in trace),
             "trace must be a list of rule names")

    env = _parse_env(wire["env"])
    strategy = _resolve_strategy_ref(wire["strategyRef"], exercise, terms)
    expr = parse(wire["expr"])
    start = parse(wire["start"])

    try:
        zipper = focus_root(expr)
        for index in path:
            zipper = zipper.down(index)
    except NavigationError:
        raise InvalidLocationError(path) from None

    budget = budget if budget is not None else Budget()
    key = None
    if memo is not None and budget.used == 0 and not budget.check_cache:
        ref = wire["strategyRef"]
        # tagged, so no term text can pose as the exercise default
        tagged = ("term", ref["term"]) if isinstance(ref, dict) else ("ref", ref)
        key = (exercise.code, tagged, wire["start"], budget.limit)
    remaining = _replay_remaining(strategy, start, tuple(trace), env,
                                  path, wire["expr"], budget, memo, key)
    return State(env, zipper, remaining), wire["strategyRef"], wire["start"], list(trace)


# replayed levels one registry keeps; at most this many, least recent dropped
REPLAY_MEMO_SIZE = 256


def _replay_remaining(strategy, start_term, trace, env, path, expr_text, budget, memo, key):
    # memo maps key + (n, running hash of the trace's first n names) to
    # (those n names, level, stopped, used, check_cache): the states the
    # prefix replays to, whether its last name left the strategy, and the
    # transitions and check outcomes the replay left in a fresh budget. The
    # running hashes make the longest-prefix search linear in the trace, and
    # a stored prefix ends at the first name that left the strategy, so no
    # entry is longer than the replay it saves. No key, no memo.
    states = [State(Environment(), focus_root(start_term), strategy)]
    done, stopped = 0, False
    if key is not None:
        running = [0]
        for name in trace:
            running.append(hash((running[-1], name)))
        for n in range(len(trace), 0, -1):
            prefix_key = key + (n, running[n])
            entry = memo.get(prefix_key)
            if entry is not None and entry[0] == trace[:n]:
                memo.move_to_end(prefix_key)
                _, states, stopped, used, cache = entry
                budget.tick(used)
                budget.check_cache.update(cache)
                done = n
                break
    reached = done
    while not stopped and reached < len(trace):
        name = trace[reached]
        reached += 1
        level = []
        seen = set()
        for st in states:
            for rule, succ in big_step(st, budget):
                if rule.name == name and succ not in seen:
                    seen.add(succ)
                    level.append(succ)
        if level:
            states = level
        else:
            stopped = True  # trace left the strategy; keep the longest replayable prefix
    if key is not None and reached > done:
        memo[key + (reached, running[reached])] = (
            trace[:reached], states, stopped, budget.used, dict(budget.check_cache))
        if len(memo) > REPLAY_MEMO_SIZE:
            memo.popitem(last=False)

    # an exact match wins, then one at the same position, then any state
    positional = [st for st in states if st.env == env and st.focus.path == path]
    exact = [st for st in positional if print_expr(unfocus(st.focus)) == expr_text]
    pool = exact or positional or states
    return (pool[0] if len(pool) == 1 else min(pool, key=state_sort_key)).remaining


# ---------------------------------------------------------------------------
# request handling

_FIELDS = {
    "generate": ({"exercise"}, {"difficulty", "seed"}),
    "allfirsts": ({"exercise", "state"}, set()),
    "onefirst": ({"exercise", "state"}, set()),
    "derivation": ({"exercise", "state"}, set()),
    "ready": ({"exercise", "state"}, set()),
    "stepsremaining": ({"exercise", "state"}, set()),
    "apply": ({"exercise", "state", "rule", "location"}, set()),
    "applicable": ({"exercise", "state", "location"}, set()),
    "diagnose": ({"exercise", "state", "expression"}, set()),
    "lint": (set(), {"exercise", "strategy"}),
}


def _encode(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _ok(value) -> str:
    return _encode({"ok": value})


def _error(code: str, message: str) -> str:
    return _encode({"error": {"code": code, "message": message}})


def _bounded_int(text: str) -> int:
    # the interpreter's own limit is version-dependent and its text names a
    # Python call, so the decoder applies the bound itself
    if len(text.lstrip("-")) > MAX_EXPONENT_DIGITS:
        raise WireFormatError("bad JSON: integer longer than %d digits" % MAX_EXPONENT_DIGITS)
    return int(text)


# Valid requests nest at most 4 deep. The decoder's own limit is the
# interpreter's recursion limit, which differs between Python versions; this
# bound is checked first and keeps it out of reach.
MAX_JSON_DEPTH = 500
_JSON_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[\[{\]}]')
_NESTING = {"[": 1, "{": 1, "]": -1, "}": -1}


def _decode(line: str):
    # brackets inside strings do not nest; a line with few brackets needs no scan
    if line.count("[") + line.count("{") > MAX_JSON_DEPTH:
        depth = 0
        for token in _JSON_TOKEN.finditer(line):
            depth += _NESTING.get(token.group(), 0)
            if depth > MAX_JSON_DEPTH:
                raise WireFormatError("bad JSON: nested too deeply")
    return json.loads(line, parse_int=_bounded_int)


# Which failure gives which answer: (exception classes, error code, message
# template filled with the exception's text). The first entry that matches
# wins, so the ValueError subclasses come before the ValueError catch-all.
# The budget bounds all work, term size included: a term that parsed but is
# too deep for the recursive term code, or an exponent too long to print,
# exhausts it like a long search does. An exception the table does not name
# is a bug, not an answer, and propagates.
FAILURES = (
    ((json.JSONDecodeError,), "parse-error", "bad JSON: {}"),
    ((WireFormatError, ParseError, TermParseError), "parse-error", "{}"),
    # the closed error code set has no better fit for a missing generator
    ((UnknownCodeError, NoGeneratorError), "unknown-code", "{}"),
    ((InvalidLocationError, NavigationError), "invalid-location", "{}"),
    ((RuleNotApplicableError,), "rule-not-applicable", "{}"),
    ((BudgetExceededError,), "budget-exceeded", "{}"),
    # execution guard, reported like the budget it replaces
    ((LeftRecursionError,), "budget-exceeded", "left-recursive strategy: {}"),
    ((NoStepAvailableError, StuckError), "no-step-available", "{}"),
    ((RecursionError,), "budget-exceeded", "term nested too deeply"),
    ((ValueError,), "budget-exceeded", "{}"),
)

# every class FAILURES names, for an `except` clause
ANSWERED = tuple(cls for classes, _, _ in FAILURES for cls in classes)


def failure_answer(exc: BaseException) -> tuple:
    """The (code, message) FAILURES gives an exception of an ANSWERED class."""
    for classes, code, template in FAILURES:
        if isinstance(exc, classes):
            return code, template.format(exc)
    raise exc


def handle_request(line: str, registry: Registry = None) -> str:
    registry = registry if registry is not None else default_registry()
    try:
        request = _decode(line)
        _require(isinstance(request, dict), "request must be an object")
        service = request.get("service")
        _require(isinstance(service, str), "request must name a service")
        if service not in _FIELDS:
            return _error("unknown-service", "no service named %r" % service)
        required, optional = _FIELDS[service]
        fields = set(request) - {"service"}
        unknown = fields - required - optional
        _require(not unknown, "unknown fields: %s" % ", ".join(sorted(unknown)))
        missing = required - fields
        _require(not missing, "missing fields: %s" % ", ".join(sorted(missing)))

        return _ok(_dispatch(service, request, registry))
    except ANSWERED as exc:
        return _error(*failure_answer(exc))


def _dispatch(service: str, request: dict, registry: Registry):
    if service == "lint":
        return _handle_lint(request, registry)

    exercise = registry.lookup(_string_field(request, "exercise"))
    budget = Budget()

    if service == "generate":
        difficulty = request.get("difficulty", "medium")
        seed = request.get("seed", 0)
        _require(isinstance(difficulty, str), "difficulty must be a string")
        _require(type(seed) is int, "seed must be an integer")
        try:
            state = services.generate(registry, exercise.code, difficulty, seed)
        except ValueError as exc:
            raise WireFormatError(str(exc)) from None
        start = print_expr(unfocus(state.focus))
        return {"state": serialize_state(state, EXERCISE_DEFAULT_REF, start, [])}

    state, ref, start, trace = deserialize_state(request["state"], exercise, budget,
                                                 registry.replays, registry.terms)

    if service == "allfirsts":
        candidates = services.allfirsts(exercise, state, budget)
        return {"candidates": [
            {"rule": c.rule.name,
             "state": serialize_state(c.state, ref, start, trace + [c.rule.name])}
            for c in candidates
        ]}
    if service == "onefirst":
        c = services.onefirst(exercise, state, budget)
        return {"rule": c.rule.name,
                "state": serialize_state(c.state, ref, start, trace + [c.rule.name])}
    if service == "derivation":
        steps = services.derivation(exercise, state, budget)
        return {"steps": [[s.rule.name, print_expr(unfocus(s.state.focus))]
                          for s in steps]}
    if service == "ready":
        return {"ready": services.ready(exercise, state)}
    if service == "stepsremaining":
        return {"remaining": services.stepsremaining(exercise, state, budget)}
    if service == "apply":
        rule = _string_field(request, "rule")
        location = _index_path(request["location"], "location")
        new_state = services.apply(exercise, rule, location, state)
        new_state = services.adopt_step(exercise, state, rule, new_state, budget)
        return {"state": serialize_state(new_state, ref, start, trace + [rule])}
    if service == "applicable":
        location = _index_path(request["location"], "location")
        rules = services.applicable(exercise, location, state)
        return {"rules": [r.name for r in rules]}
    if service == "diagnose":
        submitted = parse(_string_field(request, "expression"))
        result = services.diagnose(exercise, state, submitted, budget)
        return {"diagnosis": result.kind, "rule": result.rule}
    raise AssertionError("unreachable service %r" % service)


def _handle_lint(request: dict, registry: Registry):
    has_code = "exercise" in request
    has_term = "strategy" in request
    _require(has_code != has_term, "lint needs exactly one of exercise or strategy")
    if has_code:
        strategy = registry.lookup(_string_field(request, "exercise")).strategy
    else:
        strategy = strategy_term(_string_field(request, "strategy"), registry.terms)
    report = lint_strategy(strategy)
    return {
        "clean": report.clean,
        "findings": [
            {"kind": f.kind, "path": list(f.path),
             "detail": f.detail, "certainty": f.certainty}
            for f in report.findings
        ],
    }


def _string_field(request: dict, field: str) -> str:
    value = request.get(field)
    _require(isinstance(value, str), "%s must be a string" % field)
    return value


def serve(stdin: TextIO = None, stdout: TextIO = None, registry: Registry = None) -> None:
    """Answer JSON-lines requests until end of input.

    Without a stdin argument it reads sys.stdin as UTF-8 whatever the locale.
    Bytes that are not UTF-8 reach the JSON decoder as lone surrogates and
    answer parse-error, where strict decoding would end the loop.
    """
    if stdin is None:
        stdin = sys.stdin
        if isinstance(stdin, io.TextIOWrapper):
            stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    stdout = stdout if stdout is not None else sys.stdout
    registry = registry if registry is not None else default_registry()
    for line in stdin:
        if not line.strip():
            continue
        stdout.write(handle_request(line, registry) + "\n")
        stdout.flush()
