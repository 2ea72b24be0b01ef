"""Power expressions: syntax, rewrite rules, normal form, and a generator.

The term language is variables, integer powers, products, and reciprocals.
Exponents are plain integers carried on the Power node, not subterms, so
navigation never descends into them.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from .navigation import expr_rule
from .strategy import interned


class Expr:
    """Base class for power expressions, interned."""

    __slots__ = ("__weakref__",)


@interned
class Var(Expr):
    __slots__ = ("name",)

    def children(self):
        return ()

    def with_child(self, index, child):
        raise IndexError("variables have no children")


@interned
class Power(Expr):
    __slots__ = ("base", "exponent")

    def __repr__(self):
        # the dataclass text; state_sort_key orders states by it
        return "Power(base=%r, exponent=%s)" % (self.base, _digits(self.exponent))

    def children(self):
        return (self.base,)

    def with_child(self, index, child):
        if index != 0:
            raise IndexError("powers have a single child")
        return self if child is self.base else Power(child, self.exponent)


@interned
class Mul(Expr):
    __slots__ = ("left", "right")

    def children(self):
        return (self.left, self.right)

    def with_child(self, index, child):
        if index == 0:
            return self if child is self.left else Mul(child, self.right)
        if index == 1:
            return self if child is self.right else Mul(self.left, child)
        raise IndexError("products have two children")


@interned
class Recip(Expr):
    __slots__ = ("arg",)

    def children(self):
        return (self.arg,)

    def with_child(self, index, child):
        if index != 0:
            raise IndexError("reciprocals have a single child")
        return self if child is self.arg else Recip(child)


# ---------------------------------------------------------------------------
# concrete syntax

MAX_EXPONENT_DIGITS = 4300  # CPython's default int-to-text limit, on every version
_EXPONENT_BOUND = 10 ** MAX_EXPONENT_DIGITS


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s at position %d" % (message, position))
        self.position = position


class _Parser:
    # expr   := term ('*' term)*           products associate left
    # term   := '1/' term | factor ('^' int)?
    # factor := ident | '(' expr ')'
    # '1/' binds a whole term, so 1/a^-2 is the reciprocal of a^-2.

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Expr:
        e = self.expr()
        if self.pos != len(self.text):
            raise ParseError("unexpected %r" % self.text[self.pos], self.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() == "*":
            self.pos += 1
            e = Mul(e, self.term())
        return e

    def term(self) -> Expr:
        if self.text.startswith("1/", self.pos):
            self.pos += 2
            return Recip(self.term())
        e = self.factor()
        if self.peek() == "^":
            self.pos += 1
            e = Power(e, self.integer())
        return e

    def factor(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return e
        if ch is not None and ch.isalpha() and ch.islower():
            start = self.pos
            self.pos += 1
            while True:
                c = self.peek()
                if c is not None and (c.isdigit() or (c.isalpha() and c.islower())):
                    self.pos += 1
                else:
                    break
            return Var(self.text[start:self.pos])
        raise ParseError("expected a variable or '('", self.pos)

    def integer(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not (self.peek() or "").isdigit():
            raise ParseError("expected an integer exponent", self.pos)
        digits = self.pos
        while (self.peek() or "").isdigit():
            self.pos += 1
        if self.pos - digits > MAX_EXPONENT_DIGITS:
            raise ParseError("exponent has too many digits", start)
        return int(self.text[start:self.pos])

    def peek(self) -> Optional[str]:
        return self.text[self.pos] if self.pos < len(self.text) else None


def parse(text: str) -> Expr:
    """Parse the concrete syntax; whitespace is not allowed."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.pos) from None


def _digits(n: int) -> str:
    if abs(n) >= _EXPONENT_BOUND:
        raise ValueError("exponent has too many digits to print")
    return "%d" % n


def print_expr(e: Expr) -> str:
    """Render with the fewest parentheses that survive a round trip."""
    if type(e) is Var:
        return e.name
    if type(e) is Power:
        base = print_expr(e.base)
        if type(e.base) is not Var:
            base = "(%s)" % base
        return "%s^%s" % (base, _digits(e.exponent))
    if type(e) is Mul:
        left = print_expr(e.left)
        right = print_expr(e.right)
        if type(e.right) is Mul:
            right = "(%s)" % right
        return "%s*%s" % (left, right)
    if type(e) is Recip:
        inner = print_expr(e.arg)
        if type(e.arg) is Mul:
            inner = "(%s)" % inner
        return "1/%s" % inner
    raise TypeError("not a power expression: %r" % (e,))


# ---------------------------------------------------------------------------
# rewrite rules

def _add_exp(e: Expr) -> Iterator[Expr]:
    # a^x * a^y -> a^(x+y) for syntactically equal bases
    if (type(e) is Mul and type(e.left) is Power and type(e.right) is Power
            and e.left.base is e.right.base):
        yield Power(e.left.base, e.left.exponent + e.right.exponent)


def _mul_exp(e: Expr) -> Iterator[Expr]:
    # (a^x)^y -> a^(x*y)
    if type(e) is Power and type(e.base) is Power:
        yield Power(e.base.base, e.base.exponent * e.exponent)


def _dist_exp(e: Expr) -> Iterator[Expr]:
    # (a*b)^x -> a^x * b^x
    if type(e) is Power and type(e.base) is Mul:
        yield Mul(Power(e.base.left, e.exponent), Power(e.base.right, e.exponent))


def _reci_exp(e: Expr) -> Iterator[Expr]:
    # a^x -> 1/a^-x
    if type(e) is Power:
        yield Recip(Power(e.base, -e.exponent))


def _bug_add_exp(e: Expr) -> Iterator[Expr]:
    # the classic mistake: multiplying instead of adding the exponents
    if (type(e) is Mul and type(e.left) is Power and type(e.right) is Power
            and e.left.base is e.right.base):
        yield Power(e.left.base, e.left.exponent * e.right.exponent)


ADD_EXP = expr_rule("AddExp", _add_exp)
MUL_EXP = expr_rule("MulExp", _mul_exp)
DIST_EXP = expr_rule("DistExp", _dist_exp)
RECI_EXP = expr_rule("ReciExp", _reci_exp)
BUG_ADD_EXP = expr_rule("BugAddExp", _bug_add_exp)

POWER_RULES = (ADD_EXP, MUL_EXP, DIST_EXP, RECI_EXP, BUG_ADD_EXP)


# ---------------------------------------------------------------------------
# normal form and the predicates built on it

def simplify_power(e: Expr) -> Expr:
    """One top-level simplification, assuming the children are already normal."""
    if type(e) is Power and type(e.base) is Power:
        return Power(e.base.base, e.base.exponent * e.exponent)
    if (type(e) is Mul and type(e.left) is Power and type(e.right) is Power
            and e.left.base is e.right.base):
        return Power(e.left.base, e.left.exponent + e.right.exponent)
    if type(e) is Power and type(e.base) is Mul:
        # distributing can expose fresh redexes in both factors and then
        # between them, so simplify the pieces and the product again
        left = simplify_power(Power(e.base.left, e.exponent))
        right = simplify_power(Power(e.base.right, e.exponent))
        return simplify_power(Mul(left, right))
    return e


def norm_power(e: Expr) -> Expr:
    """Bottom-up normal form; also eliminates reciprocals of powers.

    Reciprocals normalize by negating the exponent underneath, so 1/a^-5 and
    a^5 share a normal form. A reciprocal of a bare variable has no exponent
    to negate and stays as it is.
    """
    if type(e) is Var:
        return e
    if type(e) is Mul:
        return simplify_power(Mul(norm_power(e.left), norm_power(e.right)))
    if type(e) is Power:
        return simplify_power(Power(norm_power(e.base), e.exponent))
    if type(e) is Recip:
        arg = norm_power(e.arg)
        if type(arg) is Power:
            return Power(arg.base, -arg.exponent)
        if type(arg) is Recip:
            return arg.arg
        if type(arg) is Mul:
            return norm_power(Mul(Recip(arg.left), Recip(arg.right)))
        return Recip(arg)
    raise TypeError("not a power expression: %r" % (e,))


def _exponents(e: Expr) -> dict:
    # each variable's total exponent in e, zero totals dropped
    total: dict = {}
    stack = [(e, 1)]
    while stack:
        node, k = stack.pop()
        t = type(node)
        if t is Var:
            total[node.name] = total.get(node.name, 0) + k
        elif t is Power:
            stack.append((node.base, k * node.exponent))
        elif t is Mul:
            stack.append((node.left, k))
            stack.append((node.right, k))
        elif t is Recip:
            stack.append((node.arg, -k))
        else:
            raise TypeError("not a power expression: %r" % (node,))
    return {name: n for name, n in total.items() if n}


def eq_power(a: Expr, b: Expr) -> bool:
    """Semantic equivalence: every variable has the same total exponent.

    This is exact. Normal forms would not do, because norm_power leaves
    a^2*b^2*a^2*b^2 and a^4*b^4 apart.
    """
    return _exponents(a) == _exponents(b)


def sim_power(a: Expr, b: Expr) -> bool:
    """Similarity: structural equality as written."""
    return a == b


def is_ready(e: Expr) -> bool:
    """Nothing left to rewrite: the expression is its own normal form."""
    return norm_power(e) == e


def is_suitable(e: Expr) -> bool:
    """Worth practicing on: normalization changes the expression."""
    return norm_power(e) != e


# ---------------------------------------------------------------------------
# generator

_DIFFICULTY_DEPTH = {"easy": 3, "medium": 5, "hard": 7}

_GENERATOR_RETRIES = 100


def _depth(e: Expr) -> int:
    if type(e) is Var:
        return 1
    return 1 + max(_depth(c) for c in e.children())


def generate_power(difficulty: str = "medium", seed: int = 0) -> Expr:
    """A random expression that normalization still has work to do on.

    Deterministic in (difficulty, seed). Difficulty bounds the tree depth:
    easy 3, medium 5, hard 7. Exponents stay in 2..9 and at most two distinct
    variables appear.
    """
    if difficulty not in _DIFFICULTY_DEPTH:
        raise ValueError("difficulty must be one of %s, got %r"
                         % (sorted(_DIFFICULTY_DEPTH), difficulty))
    max_depth = _DIFFICULTY_DEPTH[difficulty]
    rng = random.Random("powers:%s:%d" % (difficulty, seed))

    for _ in range(_GENERATOR_RETRIES):
        candidate = _random_expr(rng, max_depth)
        if _depth(candidate) <= max_depth and is_suitable(candidate):
            return candidate
    raise RuntimeError("no suitable expression found for %s/%d" % (difficulty, seed))


def _random_expr(rng: random.Random, max_depth: int) -> Expr:
    names = ["a", "b"][: rng.choice((1, 1, 2))]

    def atom(depth_left: int) -> Expr:
        v = Var(rng.choice(names))
        if depth_left >= 3 and rng.random() < 0.3:
            return Power(Power(v, rng.randint(2, 9)), rng.randint(2, 9))
        if depth_left >= 2 and rng.random() < 0.85:
            return Power(v, rng.randint(2, 9))
        return v

    if max_depth <= 3:
        factors = 2
        inner = max_depth - 1
        wrap = False
    else:
        factors = rng.randint(2, 3)
        wrap = rng.random() < 0.5
        inner = max_depth - factors + (0 if not wrap else -1)

    e = atom(inner)
    for _ in range(factors - 1):
        e = Mul(e, atom(inner))
    if max_depth > 3 and wrap:
        e = Power(e, rng.randint(2, 9))
    return e
