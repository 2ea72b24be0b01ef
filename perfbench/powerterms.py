"""Power expressions on the client side, written apart from the program.

The benchmark's simulated students rewrite terms themselves (a buggy step, a
detour, the hinted step at its location), and the derivation oracle evaluates
terms exactly. Neither may lean on the program under test, so this module has
its own parser, printer, rewrites and evaluator.

Terms are tuples: ("v", name), ("p", base, exponent), ("m", left, right) and
("r", arg), for variables, integer powers, products and reciprocals.
"""

from fractions import Fraction


class TermError(ValueError):
    pass


def parse(text):
    """Parse the concrete syntax: products associate left, '1/' binds a term."""
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def expr():
        nonlocal pos
        e = term()
        while peek() == "*":
            pos += 1
            e = ("m", e, term())
        return e

    def term():
        nonlocal pos
        if text.startswith("1/", pos):
            pos += 2
            return ("r", term())
        e = factor()
        if peek() == "^":
            pos += 1
            start = pos
            if peek() == "-":
                pos += 1
            while peek() is not None and peek().isdigit():
                pos += 1
            if pos == start or text[start:pos] == "-":
                raise TermError("bad exponent at %d in %r" % (start, text))
            e = ("p", e, int(text[start:pos]))
        return e

    def factor():
        nonlocal pos
        ch = peek()
        if ch == "(":
            pos += 1
            e = expr()
            if peek() != ")":
                raise TermError("expected ')' at %d in %r" % (pos, text))
            pos += 1
            return e
        if ch is not None and ch.isalpha() and ch.islower():
            start = pos
            while peek() is not None and (peek().isdigit() or (peek().isalpha() and peek().islower())):
                pos += 1
            return ("v", text[start:pos])
        raise TermError("expected a variable or '(' at %d in %r" % (pos, text))

    e = expr()
    if pos != len(text):
        raise TermError("trailing text at %d in %r" % (pos, text))
    return e


def show(e):
    """Print a term so that parse(show(e)) == e."""
    kind = e[0]
    if kind == "v":
        return e[1]
    if kind == "p":
        base = show(e[1]) if e[1][0] == "v" else "(%s)" % show(e[1])
        return "%s^%d" % (base, e[2])
    if kind == "m":
        right = "(%s)" % show(e[2]) if e[2][0] == "m" else show(e[2])
        return "%s*%s" % (show(e[1]), right)
    inner = "(%s)" % show(e[1]) if e[1][0] == "m" else show(e[1])
    return "1/%s" % inner


def children(e):
    if e[0] == "m":
        return (e[1], e[2])
    if e[0] in ("p", "r"):
        return (e[1],)
    return ()


def positions(e, path=()):
    """Every path of child indices, preorder, root first."""
    out = [path]
    for i, child in enumerate(children(e)):
        out.extend(positions(child, path + (i,)))
    return out


def subterm(e, path):
    for i in path:
        e = children(e)[i]
    return e


def replace(e, path, new):
    if not path:
        return new
    kids = list(children(e))
    kids[path[0]] = replace(kids[path[0]], path[1:], new)
    if e[0] == "m":
        return ("m", kids[0], kids[1])
    if e[0] == "p":
        return ("p", kids[0], e[2])
    return ("r", kids[0])


def _add_exp(e):
    if e[0] == "m" and e[1][0] == "p" and e[2][0] == "p" and e[1][1] == e[2][1]:
        return ("p", e[1][1], e[1][2] + e[2][2])
    return None


def _bug_add_exp(e):
    if e[0] == "m" and e[1][0] == "p" and e[2][0] == "p" and e[1][1] == e[2][1]:
        return ("p", e[1][1], e[1][2] * e[2][2])
    return None


def _mul_exp(e):
    if e[0] == "p" and e[1][0] == "p":
        return ("p", e[1][1], e[1][2] * e[2])
    return None


def _dist_exp(e):
    if e[0] == "p" and e[1][0] == "m":
        return ("m", ("p", e[1][1], e[2]), ("p", e[1][2], e[2]))
    return None


def _reci_exp(e):
    if e[0] == "p":
        return ("r", ("p", e[1], -e[2]))
    return None


REWRITES = {
    "AddExp": _add_exp,
    "MulExp": _mul_exp,
    "DistExp": _dist_exp,
    "ReciExp": _reci_exp,
    "BugAddExp": _bug_add_exp,
}

SOUND_LAWS = ("AddExp", "MulExp", "DistExp")


def rewrite_at(rule, e, path):
    """The whole term after rule fires at path, or None when it does not fire."""
    out = REWRITES[rule](subterm(e, path))
    return None if out is None else replace(e, path, out)


def first_rewrite(rule, e):
    """(path, whole term) for the first preorder position where rule fires."""
    for path in positions(e):
        out = rewrite_at(rule, e, path)
        if out is not None:
            return path, out
    return None


def redexes(e, rules):
    """Names of the given rules that fire somewhere in e."""
    return sorted({r for r in rules for p in positions(e) if REWRITES[r](subterm(e, p)) is not None})


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def value(e, names):
    """Exact value with each variable bound to a distinct ratio of primes.

    Distinct primes make the value of a monomial determine its exponents, so
    two terms agree here exactly when they denote the same power product.
    """
    kind = e[0]
    if kind == "v":
        i = names.setdefault(e[1], len(names))
        if 2 * i + 1 >= len(_PRIMES):
            raise TermError("too many variables for the oracle")
        return Fraction(_PRIMES[2 * i], _PRIMES[2 * i + 1])
    if kind == "p":
        return value(e[1], names) ** e[2]
    if kind == "m":
        return value(e[1], names) * value(e[2], names)
    return 1 / value(e[1], names)


def check_derivation(start_text, steps, final_rules):
    """Problems with a derivation response; an empty list means it is sound.

    Every step must keep the exact value of the start term, and the last term
    must have no redex of final_rules (pass () to skip that test).
    """
    names = {}
    try:
        start = parse(start_text)
        want = value(start, names)
        last = start
        for i, (rule, text) in enumerate(steps):
            last = parse(text)
            if value(last, names) != want:
                return ["step %d (%s) changes the value: %s" % (i, rule, text)]
    except (TermError, ZeroDivisionError, TypeError, ValueError) as exc:
        return ["unreadable derivation: %s" % exc]
    left = redexes(last, final_rules)
    if left:
        return ["last term %s still has a %s redex" % (show(last), "/".join(left))]
    return []
