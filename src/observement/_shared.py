"""A line reader, its break and blank classes, the number readers and two
graph walks shared across modules.

Every number the package reads, in a file or an argument, goes through
``ascii_int`` or, for a list of tokens, ``ascii_ints``: ASCII digits after
an optional '-'.  The one fractional number, a probability, goes through
``ascii_decimal``, which allows one '.' among the digits.  Imports nothing
from the package.
"""

from __future__ import annotations

import math


def significant_lines(text: str) -> list:
    """``(lineno, line)`` for each stripped line that is not blank or a ``#`` comment.

    Lines are numbered from 1, counting the skipped ones.
    """
    return [(lineno, line) for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and line[0] != "#"]


# Regular-expression class bodies: BREAKS holds every character where
# ``str.splitlines`` breaks ("\r\n" is one break), and BLANKS every other
# character where ``str.split`` splits, so ``\s`` is the two together.
BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
BLANKS = r"\t \x1f\xa0\u1680\u2000-\u200a\u202f\u205f\u3000"


def reachable(start, successors: dict) -> set:
    """Every vertex reachable from ``start``, itself included, by an explicit stack."""
    seen = {start}
    stack = [start]
    while stack:
        for w in successors.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def first_cycle(successors: dict):
    """The first cycle met by a depth-first walk, as ``[v, ..., v]``, or None.

    Roots and each vertex's successors are taken in sorted order, so the cycle
    reported does not depend on set order.  The stack is explicit, so chains
    of any length are walked.  ``trail`` is the current path and ``depth``
    each vertex's index on it while open, -1 once finished.
    """
    depth: dict = {}
    for root in sorted(successors):
        if root in depth:
            continue
        trail = [root]
        depth[root] = 0
        stack = [iter(sorted(successors[root]))]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                depth[trail.pop()] = -1
                stack.pop()
            elif depth.get(nxt, -1) >= 0:
                return trail[depth[nxt]:] + [nxt]
            elif nxt not in depth:
                depth[nxt] = len(trail)
                trail.append(nxt)
                stack.append(iter(sorted(successors.get(nxt, ()))))
    return None


def ascii_int(token: str) -> int:
    """The integer that ``token`` writes in ASCII digits, after an optional '-'.

    ``int`` alone also reads other scripts' digits, '+', '_' and blanks, so
    '١' or '1_0' would pass as a number.  Anything else, and a token of more
    digits than ``int`` converts, raises ValueError with the token as its
    one argument.  The '-' is kept so that each caller's own message for a
    negative number still applies.
    """
    digits = token[1:] if token[:1] == "-" else token
    if digits.isdigit() and digits.isascii():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(token)


def ascii_ints(tokens: list) -> list:
    """``ascii_int`` of each token; the ValueError carries the first bad one.

    One check of the joined tokens clears the usual list of plain digits
    without a call per token; only a list that fails it is read one by one.
    """
    digits = "".join(tokens)
    if digits.isdigit() and digits.isascii():
        try:
            return list(map(int, tokens))
        except ValueError:  # a token of more digits than int() converts
            pass
    return list(map(ascii_int, tokens))


def ascii_decimal(token: str) -> float:
    """The finite number that ``token`` writes in ASCII digits with at most one '.'.

    An optional '-' may lead, as for ``ascii_int``.  ``float`` alone also reads
    other scripts' digits, '_', blanks, exponents, 'inf' and 'nan'.  Anything
    else, and a run of digits too long for a finite float, raises ValueError
    with the token as its one argument.
    """
    digits = (token[1:] if token[:1] == "-" else token).replace(".", "", 1)
    if digits.isdigit() and digits.isascii():
        value = float(token)
        if math.isfinite(value):
            return value
    raise ValueError(token)
