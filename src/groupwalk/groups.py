"""Finite groups and ball truncations of lattice and free-group families.

Every group exposes dense 0-based element indices with the identity at
index 0.  Finite kinds are total; ball truncations have a partial product
that returns ``None`` when the result leaves the ball.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 1 << 16
MAX_BALL_SIZE = 1 << 20
MAX_FREE_RANK = 26

__all__ = [
    "ConstructionError",
    "GroupSpec",
    "FiniteGroup",
    "CyclicGroup",
    "DihedralGroup",
    "SymmetricGroup",
    "QuaternionGroup",
    "TableGroup",
    "ProductGroup",
    "TruncatedGroup",
    "LatticeBall",
    "FreeBall",
    "build_group",
    "closure",
    "generating_set",
    "parse_element",
    "format_element",
]


class ConstructionError(ValueError):
    """Raised when a group description is malformed or out of bounds."""


@dataclass(frozen=True)
class GroupSpec:
    """Declarative group description, the JSON-facing construction recipe."""

    kind: str
    n: int | None = None
    rank: int | None = None
    dim: int | None = None
    radius: int | None = None
    table: tuple | None = None
    factors: tuple | None = None

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict):
            raise ConstructionError("group spec must be a JSON object")
        kind = obj.get("kind")
        if not isinstance(kind, str):
            raise ConstructionError("group spec is missing a 'kind' string")
        factors = obj.get("factors")
        if factors is not None:
            factors = tuple(GroupSpec.from_json(f) for f in factors)
        table = obj.get("table")
        if table is not None:
            try:
                table = tuple(tuple(int(x) for x in row) for row in table)
            except (TypeError, ValueError) as exc:
                raise ConstructionError(f"table entries must be integers: {exc}") from exc
        known = {"kind", "n", "rank", "dim", "radius", "table", "factors"}
        unknown = set(obj) - known
        if unknown:
            raise ConstructionError(f"unknown group spec fields: {sorted(unknown)}")
        return GroupSpec(
            kind=kind,
            n=obj.get("n"),
            rank=obj.get("rank"),
            dim=obj.get("dim"),
            radius=obj.get("radius"),
            table=table,
            factors=factors,
        )

    def to_json(self):
        out = {"kind": self.kind}
        for field_name in ("n", "rank", "dim", "radius"):
            value = getattr(self, field_name)
            if value is not None:
                out[field_name] = value
        if self.table is not None:
            out["table"] = [list(row) for row in self.table]
        if self.factors is not None:
            out["factors"] = [f.to_json() for f in self.factors]
        return out


class FiniteGroup:
    """Base class: dense indices 0..order-1, identity at 0, total product."""

    name = "group"
    order = 0
    identity = 0
    is_truncated = False

    def elements(self):
        return range(self.order)

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def _check_axioms(self):
        """Cheap identity/inverse sanity pass, run at construction."""
        e = self.identity
        for g in self.elements():
            if self.mul(e, g) != g or self.mul(g, e) != g:
                raise ConstructionError(f"{self.name}: index 0 is not a two-sided identity at {g}")
            if self.mul(g, self.inv(g)) != e or self.mul(self.inv(g), g) != e:
                raise ConstructionError(f"{self.name}: inverse of element {g} is broken")

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} order={self.order}>"


class CyclicGroup(FiniteGroup):
    """Integers mod n under addition."""

    def __init__(self, n):
        if n < 1:
            raise ConstructionError(f"cyclic group needs n >= 1, got {n}")
        if n > MAX_ORDER:
            raise ConstructionError(f"cyclic order {n} exceeds the supported bound {MAX_ORDER}")
        self.n = n
        self.order = n
        self.name = f"Z{n}"
        if n <= 4096:
            self._check_axioms()

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n


class DihedralGroup(FiniteGroup):
    """Symmetries of a regular n-gon; index j + n*k for rotation^j reflect^k."""

    def __init__(self, n):
        if n < 1:
            raise ConstructionError(f"dihedral group needs n >= 1, got {n}")
        if 2 * n > MAX_ORDER:
            raise ConstructionError(f"dihedral order {2 * n} exceeds the supported bound {MAX_ORDER}")
        self.n = n
        self.order = 2 * n
        self.name = f"D{n}"
        if self.order <= 4096:
            self._check_axioms()

    def mul(self, a, b):
        n = self.n
        j1, k1 = a % n, a // n
        j2, k2 = b % n, b // n
        j = (j1 + (j2 if k1 == 0 else -j2)) % n
        return j + n * ((k1 + k2) % 2)

    def inv(self, a):
        n = self.n
        j, k = a % n, a // n
        return ((-j) % n) if k == 0 else a


class SymmetricGroup(FiniteGroup):
    """All permutations of {0..n-1} in lexicographic order; (pq)(i) = p[q[i]]."""

    def __init__(self, n):
        if n < 1:
            raise ConstructionError(f"symmetric group needs n >= 1, got {n}")
        order = 1
        for i in range(2, n + 1):
            order *= i
        if order > MAX_ORDER:
            raise ConstructionError(
                f"symmetric group order {order} exceeds the supported bound {MAX_ORDER}"
            )
        self.n = n
        self.order = order
        self.name = f"S{n}"
        self.perms = list(itertools.permutations(range(n)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        if order <= 4096:
            self._check_axioms()

    def mul(self, a, b):
        p, q = self.perms[a], self.perms[b]
        return self.index[tuple(p[q[i]] for i in range(self.n))]

    def inv(self, a):
        p = self.perms[a]
        out = [0] * self.n
        for i, pi in enumerate(p):
            out[pi] = i
        return self.index[tuple(out)]


class QuaternionGroup(FiniteGroup):
    """The eight unit quaternions {1,-1,i,-i,j,-j,k,-k} in that order."""

    _units = ("1", "i", "j", "k")
    # products of basis units: _table[u][v] = (sign, unit)
    _basis = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }

    def __init__(self):
        self.order = 8
        self.name = "Q8"
        self._check_axioms()

    @staticmethod
    def _split(a):
        return (1 if a % 2 == 0 else -1), QuaternionGroup._units[a // 2]

    @staticmethod
    def _join(sign, unit):
        return 2 * QuaternionGroup._units.index(unit) + (0 if sign == 1 else 1)

    def mul(self, a, b):
        sa, ua = self._split(a)
        sb, ub = self._split(b)
        sp, up = self._basis[(ua, ub)]
        return self._join(sa * sb * sp, up)

    def inv(self, a):
        sign, unit = self._split(a)
        if unit == "1":
            return a
        return self._join(-sign, unit)


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table over indices."""

    def __init__(self, table, name="table"):
        n = len(table)
        if n == 0:
            raise ConstructionError("multiplication table is empty")
        if n > MAX_ORDER:
            raise ConstructionError(f"table order {n} exceeds the supported bound {MAX_ORDER}")
        rows = [list(r) for r in table]
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ConstructionError(f"table row {i} has length {len(row)}, expected {n}")
            if any(not (0 <= x < n) for x in row):
                raise ConstructionError(f"table row {i} has entries outside 0..{n - 1}")
            if len(set(row)) != n:
                raise ConstructionError(f"table is not a Latin square: row {i} repeats entries")
        for c, col in enumerate(zip(*rows)):
            if len(set(col)) != n:
                raise ConstructionError(f"table is not a Latin square: column {c} repeats entries")
        if rows[0] != list(range(n)) or [rows[r][0] for r in range(n)] != list(range(n)):
            raise ConstructionError("index 0 must be a two-sided identity")
        self._inv = [row.index(0) for row in rows]  # every Latin row holds 0 once
        self.table = rows
        self.order = n
        self.name = name
        self._check_associativity()
        self._check_axioms()

    def _check_associativity(self):
        """Light's test: (x*t)*y = x*(t*y) for all x, y and each t of a
        generating set.  The elements t passing it are closed under the
        product, so passing on generators proves associativity exactly."""
        t = np.array(self.table, dtype=np.int32)
        for g in generating_set(self):
            bad = np.argwhere(t[t[:, g]] != t[:, t[g]])
            if bad.size:
                a, c = bad[0].tolist()
                raise ConstructionError(f"table is not associative at ({a}, {g}, {c})")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]


class ProductGroup(FiniteGroup):
    """Direct product; index is mixed-radix with the first factor major."""

    def __init__(self, factors):
        if len(factors) < 2:
            raise ConstructionError("product group needs at least two factors")
        if any(f.is_truncated for f in factors):
            raise ConstructionError("product factors must be finite groups")
        order = 1
        for f in factors:
            order *= f.order
        if order > MAX_ORDER:
            raise ConstructionError(f"product order {order} exceeds the supported bound {MAX_ORDER}")
        self.factors = list(factors)
        self.order = order
        self.name = "x".join(f.name for f in factors)
        if order <= 4096:
            self._check_axioms()

    def _decode(self, a):
        coords = []
        for f in reversed(self.factors):
            coords.append(a % f.order)
            a //= f.order
        return list(reversed(coords))

    def _encode(self, coords):
        a = 0
        for f, c in zip(self.factors, coords):
            a = a * f.order + c
        return a

    def mul(self, a, b):
        ca, cb = self._decode(a), self._decode(b)
        return self._encode([f.mul(x, y) for f, x, y in zip(self.factors, ca, cb)])

    def inv(self, a):
        return self._encode([f.inv(x) for f, x in zip(self.factors, self._decode(a))])


class TruncatedGroup:
    """Ball truncation of an infinite family: partial product, total inverse."""

    is_truncated = True
    identity = 0

    def __init__(self, forms, radius, name):
        if len(forms) > MAX_BALL_SIZE:
            raise ConstructionError(
                f"ball size {len(forms)} exceeds the supported bound {MAX_BALL_SIZE}"
            )
        self.radius = radius
        self.forms = forms
        self.index = {f: i for i, f in enumerate(forms)}
        self.order = len(forms)
        self.name = name

    def elements(self):
        return range(self.order)

    def canonical_form(self, a):
        return self.forms[a]

    def index_of_form(self, form):
        """Index of a canonical form, or None when it lies outside the ball."""
        return self.index.get(form)

    def mul_forms(self, u, v):
        raise NotImplementedError

    def inv_form(self, u):
        raise NotImplementedError

    def length_form(self, u):
        raise NotImplementedError

    def mul(self, a, b):
        """Product of two elements, None when the result leaves the ball."""
        return self.index.get(self.mul_forms(self.forms[a], self.forms[b]))

    def inv(self, a):
        return self.index[self.inv_form(self.forms[a])]

    def length(self, a):
        return self.length_form(self.forms[a])

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} size={self.order}>"


class LatticeBall(TruncatedGroup):
    """Integer lattice Z^dim truncated to the word-length (L1) ball."""

    family = "lattice"

    def __init__(self, dim, radius):
        if dim < 1:
            raise ConstructionError(f"lattice needs dim >= 1, got {dim}")
        if radius < 0:
            raise ConstructionError(f"lattice radius must be nonnegative, got {radius}")
        self.dim = dim
        size = 0
        for r in range(radius + 1):
            size += self._sphere_size(dim, r)
            if size > MAX_BALL_SIZE:
                raise ConstructionError(
                    f"lattice ball dim={dim} radius={radius} exceeds {MAX_BALL_SIZE} elements"
                )
        forms = [p for r in range(radius + 1) for p in sorted(self._sphere(dim, r))]
        super().__init__(forms, radius, f"Z^{dim}ball{radius}")

    @staticmethod
    def _sphere_size(dim, r):
        """Number of integer points with L1 norm exactly r: choose k nonzero
        coordinates, split r into k positive parts and pick k signs."""
        if r == 0:
            return 1
        return sum(math.comb(dim, k) * math.comb(r - 1, k - 1) * 2**k for k in range(1, min(dim, r) + 1))

    @staticmethod
    def _sphere(dim, r):
        """All integer points with L1 norm exactly r, in no particular order."""
        if r == 0:
            return [(0,) * dim]
        points = []
        for k in range(1, min(dim, r) + 1):
            for support in itertools.combinations(range(dim), k):
                for cuts in itertools.combinations(range(1, r), k - 1):
                    parts = [b - a for a, b in zip((0,) + cuts, cuts + (r,))]
                    for signs in itertools.product((1, -1), repeat=k):
                        point = [0] * dim
                        for i, x, sign in zip(support, parts, signs):
                            point[i] = sign * x
                        points.append(tuple(point))
        return points

    def family_key(self):
        return ("lattice", self.dim)

    def mul_forms(self, u, v):
        return tuple(x + y for x, y in zip(u, v))

    def inv_form(self, u):
        return tuple(-x for x in u)

    def length_form(self, u):
        return sum(abs(x) for x in u)

    def index_of_form(self, form):
        if self.length_form(form) > self.radius:
            return None
        return self.index.get(form)


class FreeBall(TruncatedGroup):
    """Free group on `rank` letters truncated to the reduced-word ball.

    Words are tuples of signed letters (+i for the i-th generator, -i for
    its inverse, 1-based) and are enumerated in shortlex order with
    letters ordered a < a^-1 < b < b^-1 < ...
    """

    family = "free"

    def __init__(self, rank, radius):
        if not (1 <= rank <= MAX_FREE_RANK):
            raise ConstructionError(f"free rank must be in 1..{MAX_FREE_RANK}, got {rank}")
        if radius < 0:
            raise ConstructionError(f"free radius must be nonnegative, got {radius}")
        self.rank = rank
        letters = []
        for i in range(1, rank + 1):
            letters.extend((i, -i))
        self._letters = letters
        forms = [()]
        sphere = [()]
        for _ in range(radius):
            nxt = []
            for word in sphere:
                for letter in letters:
                    if word and word[-1] == -letter:
                        continue
                    nxt.append(word + (letter,))
            forms.extend(nxt)
            sphere = nxt
            if len(forms) > MAX_BALL_SIZE:
                raise ConstructionError(
                    f"free ball rank={rank} radius={radius} exceeds {MAX_BALL_SIZE} elements"
                )
        super().__init__(forms, radius, f"F{rank}ball{radius}")

    def family_key(self):
        return ("free", self.rank)

    def mul_forms(self, u, v):
        out = list(u)
        for letter in v:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def inv_form(self, u):
        return tuple(-x for x in reversed(u))

    def length_form(self, u):
        return len(u)

    def index_of_form(self, form):
        if len(form) > self.radius:
            return None
        return self.index.get(form)


def build_group(spec):
    """Construct a group from a GroupSpec, validating bounds and shapes."""
    kind = spec.kind
    if kind == "cyclic":
        _require_int(spec.n, "n", kind)
        return CyclicGroup(spec.n)
    if kind == "dihedral":
        _require_int(spec.n, "n", kind)
        return DihedralGroup(spec.n)
    if kind == "symmetric":
        _require_int(spec.n, "n", kind)
        return SymmetricGroup(spec.n)
    if kind == "quaternion8":
        return QuaternionGroup()
    if kind == "table":
        if spec.table is None:
            raise ConstructionError("table kind requires a 'table' field")
        return TableGroup(spec.table)
    if kind == "product":
        if not spec.factors:
            raise ConstructionError("product kind requires a 'factors' list")
        return ProductGroup([build_group(f) for f in spec.factors])
    if kind == "lattice":
        _require_int(spec.dim, "dim", kind)
        _require_int(spec.radius, "radius", kind)
        if spec.radius < 1:
            raise ConstructionError("lattice spec requires radius >= 1")
        return LatticeBall(spec.dim, spec.radius)
    if kind == "free":
        _require_int(spec.rank, "rank", kind)
        _require_int(spec.radius, "radius", kind)
        if spec.radius < 1:
            raise ConstructionError("free spec requires radius >= 1")
        return FreeBall(spec.rank, spec.radius)
    raise ConstructionError(f"unknown group kind {kind!r}")


def _require_int(value, field, kind):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConstructionError(f"{kind} spec requires integer field '{field}', got {value!r}")


def closure(group, seed_elements):
    """Smallest product-closed subset of a finite group containing the seeds.

    BFS saturation under right multiplication by the seed set.  In a finite
    group this semigroup closure automatically contains inverses and, when
    the seed set is symmetric, the identity, so it is then a subgroup.
    """
    if group.is_truncated:
        raise ConstructionError("closure is only defined for finite groups")
    seeds = sorted(set(seed_elements))
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for g in frontier:
            for s in seeds:
                p = group.mul(g, s)
                if p not in reached:
                    reached.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted(reached)


def generating_set(group):
    """Greedy generating set of a finite group: in index order, each element
    that the closure of the elements chosen so far has not reached joins."""
    gens, reached = [], {group.identity}
    for g in group.elements():
        if g not in reached:
            gens.append(g)
            reached = set(closure(group, gens))
    return gens


def format_element(group, a):
    """Canonical text for one element.

    Cyclic and table-indexed kinds print the decimal index, lattice points
    print as JSON integer arrays, free-group words print as letters with
    a..z for generators and A..Z for inverses (empty string = identity).
    """
    if not (0 <= a < group.order):
        raise ConstructionError(f"element index {a} out of range for {group.name}")
    if isinstance(group, LatticeBall):
        return json.dumps(list(group.canonical_form(a)), separators=(",", ":"))
    if isinstance(group, FreeBall):
        chars = []
        for letter in group.canonical_form(a):
            base = ord("a") if letter > 0 else ord("A")
            chars.append(chr(base + abs(letter) - 1))
        return "".join(chars)
    return str(a)


def parse_element(group, text):
    """Inverse of format_element; raises ConstructionError on bad input."""
    if isinstance(group, LatticeBall):
        try:
            coords = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConstructionError(f"malformed lattice point {text!r}: {exc}") from exc
        if not isinstance(coords, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in coords
        ):
            raise ConstructionError(f"lattice point must be a JSON integer array, got {text!r}")
        if len(coords) != group.dim:
            raise ConstructionError(
                f"lattice point {text!r} has dimension {len(coords)}, expected {group.dim}"
            )
        idx = group.index_of_form(tuple(coords))
        if idx is None:
            raise ConstructionError(f"lattice point {text!r} lies outside the radius-{group.radius} ball")
        return idx
    if isinstance(group, FreeBall):
        word = ()
        for ch in text:
            if "a" <= ch <= "z":
                letter = ord(ch) - ord("a") + 1
            elif "A" <= ch <= "Z":
                letter = -(ord(ch) - ord("A") + 1)
            else:
                raise ConstructionError(f"unknown letter {ch!r} in free-group word {text!r}")
            if abs(letter) > group.rank:
                raise ConstructionError(f"letter {ch!r} exceeds rank {group.rank} in word {text!r}")
            word = group.mul_forms(word, (letter,))
        idx = group.index_of_form(word)
        if idx is None:
            raise ConstructionError(f"word {text!r} reduces outside the radius-{group.radius} ball")
        return idx
    try:
        a = int(text)
    except ValueError as exc:
        raise ConstructionError(f"element of {group.name} must be a decimal index, got {text!r}") from exc
    if not (0 <= a < group.order):
        raise ConstructionError(f"element index {a} out of range 0..{group.order - 1} for {group.name}")
    return a
