"""Tuple-form reference for ball truncations.

The library holds a ball as arrays only.  This module enumerates the same
elements independently as tuples (reduced words of signed letters, or
lattice points) and answers every per-element call of the ball API from
those tuples and a dict.  Tests compare the arrays against it.
"""

import functools
import itertools
import json

from groupwalk.groups import FreeBall, LatticeBall


def reduced_words(rank, radius):
    """Independent enumeration of reduced words: BFS that never appends the
    inverse of the last letter."""
    letters = []
    for i in range(1, rank + 1):
        letters += [i, -i]
    words = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        words += nxt
        frontier = nxt
    return words


def lattice_points(dim, radius):
    """Every point of L1 length <= radius, unordered: the nonzero
    coordinates on each choice of axes."""
    points = []
    for k in range(min(dim, radius) + 1):
        nonzero = [x for x in range(-radius, radius + 1) if x]
        for axes in itertools.combinations(range(dim), k):
            for values in itertools.product(nonzero, repeat=k):
                if sum(map(abs, values)) <= radius:
                    point = [0] * dim
                    for axis, x in zip(axes, values):
                        point[axis] = x
                    points.append(tuple(point))
    return points


def mul_forms(family, u, v):
    """Product of two forms: coordinate sums, or concatenation with free
    reduction."""
    if family == "lattice":
        return tuple(x + y for x, y in zip(u, v))
    out = list(u)
    for letter in v:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inv_form(family, u):
    if family == "lattice":
        return tuple(-x for x in u)
    return tuple(-x for x in reversed(u))


def length_form(family, u):
    if family == "lattice":
        return sum(abs(x) for x in u)
    return len(u)


class BallReference:
    """The ball API of one ball truncation, answered from tuple forms."""

    def __init__(self, family, size, radius):
        self.family, self.radius = family, radius
        if family == "lattice":
            self.forms = sorted(lattice_points(size, radius), key=lambda p: (length_form(family, p), p))
        else:
            self.forms = reduced_words(size, radius)  # shortlex, letters a < A < b < B < ...
        self.index = {f: i for i, f in enumerate(self.forms)}

    def index_of_form(self, form):
        if length_form(self.family, form) > self.radius:
            return None
        return self.index.get(tuple(form))

    def mul_forms(self, u, v):
        return mul_forms(self.family, u, v)

    def mul(self, a, b):
        return self.index.get(self.mul_forms(self.forms[a], self.forms[b]))

    def inv(self, a):
        return self.index[inv_form(self.family, self.forms[a])]

    def length(self, a):
        return length_form(self.family, self.forms[a])

    def text(self, form):
        """The element text of a form, inside the ball or not."""
        if self.family == "lattice":
            return json.dumps(list(form), separators=(",", ":"))
        return "".join(chr((ord("a") if x > 0 else ord("A")) + abs(x) - 1) for x in form)

    def format(self, a):
        return self.text(self.forms[a])

    def parse(self, text):
        """Index of a text element, None when it lies outside the ball."""
        if self.family == "lattice":
            return self.index_of_form(tuple(json.loads(text)))
        word = ()
        for ch in text:
            letter = ord(ch) - ord("a") + 1 if ch.islower() else -(ord(ch) - ord("A") + 1)
            word = self.mul_forms(word, (letter,))
        return self.index_of_form(word)


@functools.lru_cache(maxsize=None)
def _reference(family, size, radius):
    return BallReference(family, size, radius)


def reference(ball):
    """The (cached) tuple-form reference of a LatticeBall or FreeBall."""
    if isinstance(ball, LatticeBall):
        return _reference("lattice", ball.dim, ball.radius)
    assert isinstance(ball, FreeBall)
    return _reference("free", ball.rank, ball.radius)
