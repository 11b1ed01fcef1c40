"""Finite groups and ball truncations of lattice and free-group families.

Every group exposes dense 0-based element indices with the identity at
index 0.  Finite kinds are total; ball truncations have a partial product
that returns ``None`` when the result leaves the ball.

Walk stencils come from whole-permutation products: `right_perm(h)` and
`left_perm(h)` return g*h and h*g for every element g at once, as one int64
array on a finite group and one int32 array on a ball (MAX_BALL_SIZE fits),
with -1 where a ball product leaves the ball.  Each finite kind
defines one elementwise product `_products(a, b)` and one elementwise
inverse `_inverses(a)` over index arrays, from which `FiniteGroup` derives
both permutations, every element's order, the scalar `mul` (the product at
one index) and the scalar `inv` (a list of every inverse, read once);
`closure` searches the seeds' `right_perm` rows.  Lattice balls rank
shifted points arithmetically, and free balls walk the parent
and child tables of the BFS that built them; their scalar `mul` follows
the same arrays, which are all a ball holds.
`_classes` labels the connected classes of permutation graphs.

Each finite group names, through `abelian_cosets()`, the abelian subgroup
over whose characters the walk spectra split into blocks, and through
`generator_masks()` its greedy generating set with each element's
generator parity, over which the sign characters are searched.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 1 << 16
MAX_BALL_SIZE = 1 << 20
MAX_FREE_RANK = 26
BLOCK_ENTRIES = 1 << 20  # int64 entries of edges or composites handled at once
RANK_ENTRIES = 1 << 14  # lattice coordinates ranked at once: each temporary stays in cache

__all__ = [
    "ConstructionError",
    "GroupSpec",
    "FiniteGroup",
    "CyclicGroup",
    "DihedralGroup",
    "SymmetricGroup",
    "AlternatingGroup",
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
            if not isinstance(table, list) or not all(
                isinstance(row, list) and all(type(x) is int for x in row) for row in table
            ):
                raise ConstructionError(f"table must be a list of rows of JSON integers, got {table!r}")
            table = tuple(map(tuple, table))
        known = {"kind", "n", "rank", "dim", "radius", "table", "factors"}
        unknown = set(obj) - known
        if unknown:
            raise ConstructionError(f"unknown group spec fields: {sorted(unknown)}")
        return GroupSpec(kind, *(obj.get(key) for key in ("n", "rank", "dim", "radius")), table, factors)

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
    _cosets = None
    _generators = None
    _signs = None
    _inverse_list = None

    def elements(self):
        return range(self.order)

    def abelian_cosets(self):
        """(orders, coset, kappa) for an abelian subgroup A = <a_1> x ... x
        <a_k> of orders n_1 .. n_k: x = a_1^kappa_1 ... a_k^kappa_k g_c with
        c = coset[x] and kappa[x] a row of an (order, k) array, where the
        representative g_c of the coset A x has kappa 0 and the cosets are
        numbered in the order of their representatives.  Computed once, from
        permutation rows with no per-element product."""
        if self._cosets is None:
            orders, coset, kappa = self._abelian_subgroup()
            coset.flags.writeable = kappa.flags.writeable = False
            self._cosets = (tuple(orders), coset, kappa)
        return self._cosets

    def _abelian_subgroup(self):
        """A = <a> for the first element a of largest order (on S_n,
        Landau's function); the cosets A g are the cycles of left_perm(a),
        labelled by `_classes`; kappa steps along all of them at once."""
        orders = self._element_orders()
        a = int(np.argmax(orders))
        step = self.left_perm(a)
        leads, coset = np.unique(_classes(self.order, [step]), return_inverse=True)
        kappa, x = np.empty(self.order, dtype=np.int64), leads
        for m in range(orders[a]):
            kappa[x], x = m, step[x]
        return [int(orders[a])], coset, kappa[:, None]

    def generator_masks(self):
        """(gens, mask, relations, perms) for the greedy generating set t_0 ..
        t_(k-1): in index order, each element that the subgroup of the
        earlier ones has not reached joins.  mask[g] holds bit i for each t_i
        occurring an odd number of times in one word for g, relations are the
        distinct nonzero masks mask[g] ^ mask[g t_i] ^ 2^i, and perms[i] is
        right_perm(t_i), kept read-only.  Each generator at least doubles the
        subgroup, so 2^k <= order.  Computed once, by one walk over perms."""
        if self._generators is None:
            mask = np.full(self.order, -1, dtype=np.int64)
            mask[self.identity] = 0
            gens, perms = [], []
            while (unreached := np.flatnonzero(mask < 0)).size:
                gens.append(int(unreached[0]))
                if 1 << len(gens) > self.order:
                    raise ConstructionError(
                        f"{self.name} is not a group: {len(gens)} greedy generators at order {self.order}"
                    )
                perms.append(self.right_perm(gens[-1]))
                frontier = np.flatnonzero(mask >= 0)
                while frontier.size:
                    reached = []
                    for i, perm in enumerate(perms):
                        image = perm[frontier]
                        fresh = mask[image] < 0
                        mask[image[fresh]] = mask[frontier[fresh]] ^ (1 << i)
                        reached.append(image[fresh])
                    frontier = np.concatenate(reached)
            present = np.zeros(1 << len(gens), dtype=bool)
            for i, perm in enumerate(perms):
                present[mask ^ mask[perm] ^ (1 << i)] = True
            relations = np.flatnonzero(present[1:]) + 1
            for array in (mask, relations, *perms):
                array.flags.writeable = False
            self._generators = (tuple(gens), mask, relations, tuple(perms))
        return self._generators

    def sign_vectors(self):
        """The sign characters as sign vectors (bit i set: chi(t_i) = -1 for
        generator_masks' t_i), in increasing order: the 2^r of the 2^k that
        meet every relation mask with even parity, r the rank of the largest
        elementary abelian 2-quotient.  Computed once, kept read-only."""
        if self._signs is None:
            signs = np.arange(1 << len(self.generator_masks()[0]))
            for m in self.generator_masks()[2].tolist():
                signs = signs[_parity(signs & m) == 0]
            signs.flags.writeable = False
            self._signs = signs
        return self._signs

    def _element_orders(self):
        """The first k with g^k = 1 for every g: the powers of all pending
        elements stepped at once, one elementwise product per k."""
        g = power = np.arange(self.order)
        orders, k = np.zeros(self.order, dtype=np.int64), 1
        while g.size:
            done = power == self.identity
            orders[g[done]] = k
            g, power, k = g[~done], self._products(power[~done], g[~done]), k + 1
        return orders

    def mul(self, a, b):
        """a*b of two indices: the elementwise product at one index."""
        return int(self._products(a, b))

    def inv(self, a):
        """a^-1 of one index: a list of every inverse, from `_inverses` once."""
        if self._inverse_list is None:
            self._inverse_list = self._inverses(np.arange(self.order)).tolist()
        return self._inverse_list[a]

    def _products(self, a, b):
        """The elementwise products a*b of index arrays (or an array and one
        index, or two indices) broadcast together, as int64."""
        raise NotImplementedError

    def _inverses(self, a):
        """The elementwise inverses of an index array (or one index)."""
        raise NotImplementedError

    def right_perm(self, h):
        """perm[g] = g*h for every element g, as one int64 array."""
        return self._products(np.arange(self.order), h)

    def left_perm(self, h):
        """perm[g] = h*g for every element g, as one int64 array."""
        return self._products(h, np.arange(self.order))

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} order={self.order}>"


def _require_order(kind, n, order, shown):
    """Refuse a finite group of size parameter n < 1 or of order above
    MAX_ORDER; shown is the order as the message writes it."""
    if n < 1:
        raise ConstructionError(f"{kind} group needs n >= 1, got {n}")
    if order > MAX_ORDER:
        raise ConstructionError(f"{kind} group order {shown} exceeds the supported bound {MAX_ORDER}")


class CyclicGroup(FiniteGroup):
    """Integers mod n under addition."""

    def __init__(self, n):
        _require_order("cyclic", n, n, n)
        self.n = n
        self.order = n
        self.name = f"Z{n}"

    def _products(self, a, b):
        return (a + b) % self.n

    def _inverses(self, a):
        return -a % self.n

    def _abelian_subgroup(self):
        """A is the whole group: one coset, kappa(x) = x."""
        return [self.n], np.zeros(self.n, dtype=np.int64), np.arange(self.n)[:, None]


class DihedralGroup(FiniteGroup):
    """Symmetries of a regular n-gon; index j + n*k for rotation^j reflect^k."""

    def __init__(self, n):
        _require_order("dihedral", n, 2 * n, 2 * n)
        self.n = n
        self.order = 2 * n
        self.name = f"D{n}"

    def _products(self, a, b):
        n = self.n
        j1, k1 = a % n, a // n
        j2, k2 = b % n, b // n
        return (j1 + (1 - 2 * k1) * j2) % n + n * ((k1 + k2) % 2)

    def _inverses(self, a):
        """Rotations negate; reflections are involutions."""
        return np.where(a < self.n, -a % self.n, a)

    def _abelian_subgroup(self):
        """A is the rotations: x = rotation^(x mod n) * reflect^(x div n)."""
        x = np.arange(self.order)
        return [self.n], x // self.n, (x % self.n)[:, None]


class SymmetricGroup(FiniteGroup):
    """All permutations of {0..n-1} in lexicographic order; (pq)(i) = p[q[i]].

    `perms` lists them as tuples.  Products and inverses compose or invert
    the rows of one int64 array and rank the results by their base-n codes,
    which lexicographic order sorts.
    """

    def __init__(self, n):
        # 9! already exceeds the bound, so a huge n is refused without its factorial
        _require_order("symmetric", n, math.factorial(min(max(n, 0), 9)), f"{n}!")
        self.n = n
        self.order = math.factorial(n)
        self.name = f"S{n}"
        self.perms = list(itertools.permutations(range(n)))
        self._rows = np.array(self.perms, dtype=np.int64)
        self._radix = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self._codes = self._rows @ self._radix

    def _products(self, a, b):
        composed = np.take_along_axis(*np.broadcast_arrays(self._rows[a], self._rows[b]), axis=-1)
        return np.searchsorted(self._codes, composed @ self._radix)

    def _inverses(self, a):
        """The inverse of a row is its argsort."""
        return np.searchsorted(self._codes, np.argsort(self._rows[a], axis=-1) @ self._radix)


class AlternatingGroup(SymmetricGroup):
    """The even permutations of {0..n-1}: S_n cut to its even rows, still in
    lexicographic order, whose base-n codes stay sorted, so S_n's products
    and inverses serve A_n unchanged."""

    def __init__(self, n):
        _require_order("alternating", n, math.factorial(min(max(n, 0), 9)) // 2, f"{n}!/2")
        super().__init__(n)
        i, j = np.triu_indices(n, 1)
        even = (self._rows[:, i] > self._rows[:, j]).sum(axis=1) % 2 == 0
        self.perms = list(itertools.compress(self.perms, even))
        self._rows, self._codes = self._rows[even], self._codes[even]
        self.order, self.name = len(self.perms), f"A{n}"


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table over indices, held as
    one int64 array: table[a, b] = a*b."""

    def __init__(self, table, name="table"):
        n = len(table)
        if n == 0:
            raise ConstructionError("multiplication table is empty")
        _require_order("table", n, n, n)
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
        self.table = np.array(rows, dtype=np.int64)
        self._inverse = np.argmin(self.table, axis=1)  # every Latin row holds 0 once
        self.order = n
        self.name = name
        self._check_associativity()

    def _check_associativity(self):
        """Light's test: (x*t)*y = x*(t*y) for all x, y and each t of a
        generating set.  The elements t passing it are closed under the
        product, so passing on generators proves associativity exactly."""
        t = self.table
        gens, _, _, perms = self.generator_masks()
        for g, perm in zip(gens, perms):
            bad = np.argwhere(t[perm] != t[:, t[g]])
            if bad.size:
                a, c = bad[0].tolist()
                raise ConstructionError(f"table is not associative at ({a}, {g}, {c})")

    def _products(self, a, b):
        return self.table[a, b]

    def _inverses(self, a):
        return self._inverse[a]


class QuaternionGroup(TableGroup):
    """The eight unit quaternions {1,-1,i,-i,j,-j,k,-k} in that order (index
    2u + s is (-1)^s times unit u), tabled once from ij = k, jk = i, ki = j."""

    def __init__(self):
        def product(a, b):
            (u, s), (v, t) = divmod(a, 2), divmod(b, 2)
            if 0 in (u, v):
                return 2 * (u + v) + (s + t) % 2
            if u == v:
                return (s + t + 1) % 2
            # the third unit, positive along the cycle i -> j -> k
            return 2 * (6 - u - v) + (s + t + ((v - u) % 3 != 1)) % 2

        super().__init__([[product(a, b) for b in range(8)] for a in range(8)], name="Q8")


class ProductGroup(FiniteGroup):
    """Direct product; index is mixed-radix with the first factor major."""

    def __init__(self, factors):
        if len(factors) < 2:
            raise ConstructionError("product group needs at least two factors")
        if any(f.is_truncated for f in factors):
            raise ConstructionError("product factors must be finite groups")
        order = math.prod(f.order for f in factors)
        _require_order("product", len(factors), order, order)
        self.factors = list(factors)
        self.order = order
        self.name = "x".join(f.name for f in factors)

    def _products(self, a, b):
        """Factor by factor on the mixed-radix digits, least significant
        (the last factor's) first."""
        out, stride = 0, 1
        for f in reversed(self.factors):
            (a, x), (b, y) = divmod(a, f.order), divmod(b, f.order)
            out, stride = out + f._products(x, y) * stride, stride * f.order
        return out

    def _inverses(self, a):
        """Factor by factor on the mixed-radix digits, as in `_products`."""
        out, stride = 0, 1
        for f in reversed(self.factors):
            a, x = divmod(a, f.order)
            out, stride = out + f._inverses(x) * stride, stride * f.order
        return out

    def _abelian_subgroup(self):
        """The product of the factors' subgroups; cosets mixed-radix."""
        parts = [f.abelian_cosets() for f in self.factors]
        coords = np.unravel_index(np.arange(self.order), [f.order for f in self.factors])
        radix = [f.order // math.prod(o) for f, (o, _, _) in zip(self.factors, parts)]
        coset = np.ravel_multi_index([c[x] for (_, c, _), x in zip(parts, coords)], radix)
        kappa = np.hstack([k[x] for (_, _, k), x in zip(parts, coords)])
        return [m for o, _, _ in parts for m in o], coset, kappa


class TruncatedGroup:
    """Ball truncation of an infinite family: partial product, total inverse.

    Elements are indexed one sphere after another: sphere r (word length r)
    holds the indices starts[r] .. starts[r + 1] - 1, so `length` is one
    bisection.  A ball holds its elements as arrays only.  Subclasses
    answer `canonical_form`, `index_of_form`, `mul` and `inv` from those
    arrays, and give `generators()` (the positive family generators in the
    ball), `right_perm(h)` and `left_perm(h)` (-1 where a product leaves the
    ball) and `parity(forced)`, the per-element parity of the letters on
    the generator axes marked in the 0/1 array forced.
    """

    is_truncated = True
    identity = 0

    def __init__(self, starts, radius, name):
        self._starts = starts
        self.radius = radius
        self.order = starts[-1]
        self.name = name

    def elements(self):
        return range(self.order)

    def length(self, a):
        return bisect.bisect_right(self._starts, a) - 1

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} size={self.order}>"


class LatticeBall(TruncatedGroup):
    """Integer lattice Z^dim truncated to the word-length (L1) ball.

    Points are ordered by length, then lexicographically, and held as one
    (order, dim) int32 array.  A point's index is computed, not searched:
    the start of its sphere plus its lexicographic rank in the sphere,
    summed axis by axis from `_sizes[d, k + 1]`, the number of points of
    Z^d of length <= k (0 at k = -1).  In this order the unit steps are the
    indices 1..2 dim (-e_i at 1 + i, +e_i at 2 dim - i), and negation
    reverses each sphere.  The int32 step permutations g -> g +- e_i are
    built on first use from the point order, one pass per axis, and shared
    read-only by `right_perm`, `left_perm` and `mul`.
    """

    family = "lattice"

    def __init__(self, dim, radius):
        if dim < 1:
            raise ConstructionError(f"lattice needs dim >= 1, got {dim}")
        if radius < 0:
            raise ConstructionError(f"lattice radius must be nonnegative, got {radius}")
        self.dim = dim
        starts = [0]
        for r in range(radius + 1):
            starts.append(starts[-1] + self._sphere_size(dim, r))
            if starts[-1] > MAX_BALL_SIZE:
                raise ConstructionError(
                    f"lattice ball dim={dim} radius={radius} exceeds {MAX_BALL_SIZE} elements"
                )
        super().__init__(starts, radius, f"Z^{dim}ball{radius}")
        from .operators import require_dense_budget  # operators imports this module

        require_dense_budget((self.order, dim), 4, f"the forms of lattice ball dim={dim} radius={radius}")
        self._coords = self._ball_points(dim, radius)
        self._sizes = sizes = np.zeros((dim, radius + 2), dtype=np.int64)
        sizes[0, 1:] = 1  # Z^0 is one point
        for d in range(1, dim):  # |x_1| = 0 keeps k, each |x_1| = t > 0 twice leaves k - t
            sizes[d, 1:] = sizes[d - 1, 1:] + 2 * np.cumsum(sizes[d - 1])[:-1]
        self._steps = {}
        self._start_array = np.array(starts)

    @staticmethod
    def _sphere_size(dim, r):
        """Number of integer points with L1 norm exactly r: choose k nonzero
        coordinates, split r into k positive parts and pick k signs."""
        if r == 0:
            return 1
        return sum(math.comb(dim, k) * math.comb(r - 1, k - 1) * 2**k for k in range(1, min(dim, r) + 1))

    @staticmethod
    def _ball_points(dim, radius):
        """Every point of L1 length <= radius as an int32 array, ordered by
        length, then lexicographically.  The points grow one axis at a time:
        a partial point with budget b = radius - |x_1| - ... - |x_i| spawns
        x_(i+1) = -b..b in increasing order, which lists the full points
        lexicographically; a stable sort by length follows."""
        budget = np.array([radius])
        parents, axes = [], []
        for _ in range(dim):
            counts = 2 * budget + 1
            parent = np.repeat(np.arange(len(budget)), counts)
            starts = np.cumsum(counts) - counts
            x = np.arange(counts.sum()) - np.repeat(starts + budget, counts)
            parents.append(parent)
            axes.append(x)
            budget = budget[parent] - np.abs(x)
        coords = np.empty((len(budget), dim), dtype=np.int32)
        rows = np.arange(len(budget))
        for i in reversed(range(dim)):
            coords[:, i] = axes[i][rows]
            rows = parents[i][rows]
        return coords[np.argsort(radius - budget, kind="stable")]

    def _lookup(self, points):
        """Indices of rows of points that all lie in the ball, RANK_ENTRIES
        coordinates at a time: with b the length left from axis i on and d
        axes after it, the sphere points sharing x's earlier coordinates
        with y_i < x_i number sizes[d, b - |x_i|] for x_i <= 0, and for
        x_i > 0 (y_i < 0, then 0 <= y_i < x_i) sizes[d, b] + sizes[d, b + 1]
        - sizes[d, b + 1 - x_i]; the index is the start of x's sphere plus
        their sum over the axes."""
        sizes = self._sizes[::-1].ravel()  # row i holds d = dim - 1 - i
        rows = np.arange(self.dim) * self._sizes.shape[1]
        index = np.empty(len(points), dtype=np.int64)
        step = max(1, RANK_ENTRIES // self.dim)
        for start in range(0, len(points), step):
            x = points[start:start + step].astype(np.int64)
            left = np.cumsum(np.abs(x)[:, ::-1], axis=1)[:, ::-1]  # b at each axis
            at, up = rows + left, np.maximum(x, 0)  # at: where sizes[d, b] lies in sizes
            terms = sizes[at + x - up] + (x > 0) * (sizes[at + 1] - sizes[at + 1 - up])
            index[start:start + step] = self._start_array[left[:, 0]] + terms.sum(axis=1)
        return index

    def _shifted(self, offset):
        """perm[g] = g + offset.  Every point of L1 length <= radius is in
        the ball, so those are looked up; the rest are -1."""
        shifted = self._coords + offset
        inside = np.abs(shifted).sum(axis=1) <= self.radius
        perm = np.full(self.order, -1, dtype=np.int32)
        perm[inside] = self._lookup(shifted[inside])
        return perm

    def _unit(self, axis, sign):
        """Index of the unit step sign * e_axis."""
        return 1 + axis if sign < 0 else 2 * self.dim - axis

    def _step(self, h):
        """The shared read-only permutation g -> g + h of a unit step h.  As
        translation by e_i keeps lexicographic order, the points with x_i >= 0
        below the outer sphere map in order onto those with x_i > 0, and those
        with x_i < 0 onto those with x_i <= 0 below it; -e_i is the inverse."""
        step = self._steps.get(h)
        if step is None:
            axis = h - 1 if h <= self.dim else 2 * self.dim - h
            x, inner = self._coords[:, axis], self._starts[-2]
            plus, minus = np.full((2, self.order), -1, dtype=np.int32)
            plus[np.flatnonzero(x[:inner] >= 0)] = np.flatnonzero(x > 0)
            plus[x < 0] = np.flatnonzero(x[:inner] <= 0)
            inside = plus >= 0
            minus[plus[inside]] = np.flatnonzero(inside)
            plus.flags.writeable = minus.flags.writeable = False
            self._steps[self._unit(axis, 1)], self._steps[self._unit(axis, -1)] = plus, minus
            step = self._steps[h]
        return step

    def family_key(self):
        return ("lattice", self.dim)

    def generators(self):
        """The unit steps e_1 .. e_dim (none at radius 0)."""
        return [self._unit(axis, 1) for axis in range(self.dim)] if self.radius else []

    def canonical_form(self, a):
        return tuple(self._coords[a].tolist())

    def index_of_form(self, form):
        """Index of a point given as dim integers, None outside the ball:
        `_lookup`'s rank of the one point."""
        form = _integer_form(form)
        if len(form) != self.dim or sum(map(abs, form)) > self.radius:
            return None
        return self._lookup(np.array([form], dtype=np.int64)).item()

    def mul(self, a, b):
        """a + b, None outside the ball: a unit step b reads its step
        permutation, any other b looks up the summed coordinates."""
        if 1 <= b <= 2 * self.dim:
            g = self._step(b).item(a)
            return None if g < 0 else g
        x, y = self._coords[a].tolist(), self._coords[b].tolist()
        return self.index_of_form([p + q for p, q in zip(x, y)])

    def inv(self, a):
        r = self.length(a)
        return self._starts[r] + self._starts[r + 1] - 1 - a

    def right_perm(self, h):
        """perm[g] = g + h; a unit step returns its shared step permutation."""
        if 1 <= h <= 2 * self.dim:
            return self._step(h)
        return self._shifted(self._coords[h])

    left_perm = right_perm

    def parity(self, forced):
        """Per element, the number of unit steps along the axes where
        forced is 1, mod 2."""
        return (np.abs(self._coords) @ np.asarray(forced, dtype=np.int64)) % 2


class FreeBall(TruncatedGroup):
    """Free group on `rank` letters truncated to the reduced-word ball.

    Words are tuples of signed letters (+i for the i-th generator, -i for
    its inverse, 1-based) and are enumerated in shortlex order with
    letters ordered a < a^-1 < b < b^-1 < ...  Slot s, 0-based in that
    order, holds the letter s//2 + 1, negated when s is odd, so slot s ^ 1
    holds its inverse.  The BFS that enumerates the ball keeps, per word,
    its parent (the word without its last letter), the slot of its last
    letter and its child per slot (-1 where none is in the ball); these
    three int32 arrays are all the ball holds.
    """

    family = "free"

    def __init__(self, rank, radius):
        if not (1 <= rank <= MAX_FREE_RANK):
            raise ConstructionError(f"free rank must be in 1..{MAX_FREE_RANK}, got {rank}")
        if radius < 0:
            raise ConstructionError(f"free radius must be nonnegative, got {radius}")
        self.rank = rank
        slots = 2 * rank
        starts = [0, 1]
        for depth in range(radius):
            starts.append(starts[-1] + slots * (slots - 1) ** depth)
            if starts[-1] > MAX_BALL_SIZE:
                raise ConstructionError(
                    f"free ball rank={rank} radius={radius} exceeds {MAX_BALL_SIZE} elements"
                )
        order = starts[-1]
        parent = np.full(order, -1, dtype=np.int32)
        last = np.full(order, -1, dtype=np.int32)
        for lo, hi, top in zip(starts, starts[1:], starts[2:]):
            words = np.repeat(np.arange(lo, hi), slots)
            letter = np.tile(np.arange(slots), hi - lo)
            keep = letter != last[words] ^ 1
            parent[hi:top] = words[keep]
            last[hi:top] = letter[keep]
        child = np.full((order, slots), -1, dtype=np.int32)
        child[parent[1:], last[1:]] = np.arange(1, order)
        super().__init__(starts, radius, f"F{rank}ball{radius}")
        self._parent, self._last, self._child = parent, last, child
        self._spheres = list(zip(starts, starts[1:]))

    def family_key(self):
        return ("free", self.rank)

    def generators(self):
        """The letters a, b, ... (none at radius 0)."""
        return list(range(1, 2 * self.rank, 2)) if self.radius else []

    def _slots(self, a):
        """The slots of the letters of word a, first letter first (the
        one-letter words are 1 .. 2 rank, in slot order)."""
        if a <= 2 * self.rank:
            return [a - 1] if a else []
        out = []
        while a:
            out.append(self._last.item(a))
            a = self._parent.item(a)
        return out[::-1]

    def _reduce(self, slots, g=0):
        """Index of the reduced form of g followed by the letters in slots,
        None outside the ball.  Letters past the radius wait on a stack
        until they cancel."""
        over = []
        for s in slots:
            if over:
                if over[-1] == s ^ 1:
                    over.pop()
                else:
                    over.append(s)
            elif self._last.item(g) == s ^ 1:
                g = self._parent.item(g)
            else:
                child = self._child.item(g, s)
                if child < 0:
                    over.append(s)
                else:
                    g = child
        return None if over else g

    def canonical_form(self, a):
        return tuple(-(s // 2 + 1) if s % 2 else s // 2 + 1 for s in self._slots(a))

    def index_of_form(self, form):
        """Index of a reduced word given as signed letters, None when the
        word is not reduced or lies outside the ball."""
        form = _integer_form(form)
        if len(form) > self.radius:
            return None
        g = 0
        for letter in form:
            if not 1 <= abs(letter) <= self.rank:
                return None
            g = self._child.item(g, 2 * abs(letter) - 2 + (letter < 0))
            if g < 0:
                return None
        return g

    def mul(self, a, b):
        """Product of two words, None when it leaves the ball."""
        return self._reduce(self._slots(b), a)

    def inv(self, a):
        """The inverse word: a's letters inverted, last letter first."""
        out = 0
        while a:
            out = self._child.item(out, self._last.item(a) ^ 1)
            a = self._parent.item(a)
        return out

    def _right_step(self, g, s):
        """g*l for the letter l in slot s, over index arrays g (and s): the
        parent where l cancels the last letter, else the child."""
        return np.where(self._last[g] == s ^ 1, self._parent[g], self._child[g, s])

    def _left_letter(self, s):
        """l*g for the letter l in slot s and every word g, one sphere at a
        time: l*(p*t) = (l*p)*t, where l*p is in the ball because p is
        shorter than the radius."""
        out = np.empty(self.order, dtype=np.int32)
        out[0] = self._child[0, s]
        for lo, hi in self._spheres[1:]:
            out[lo:hi] = self._right_step(out[self._parent[lo:hi]], self._last[lo:hi])
        return out

    def _through(self, steps):
        """Follow one-letter permutations in turn.  A product inside the
        ball never leaves it on the way (lengths fall while letters cancel,
        then rise), so a -1 on the way is final."""
        perm = np.arange(self.order, dtype=np.int32)
        for step in steps:
            inside = perm >= 0
            perm[inside] = step[perm[inside]]
        return perm

    def right_perm(self, h):
        everyone = np.arange(self.order)
        return self._through([self._right_step(everyone, s) for s in self._slots(h)])

    def left_perm(self, h):
        return self._through([self._left_letter(s) for s in reversed(self._slots(h))])

    def parity(self, forced):
        """Per word, the number of its letters on the generators where
        forced is 1, mod 2, one sphere at a time from the parents."""
        forced = np.asarray(forced, dtype=np.int64)
        out = np.zeros(self.order, dtype=np.int64)
        for lo, hi in self._spheres[1:]:
            out[lo:hi] = out[self._parent[lo:hi]] ^ forced[self._last[lo:hi] // 2]
        return out


def build_group(spec):
    """Construct a group from a GroupSpec, validating bounds and shapes."""
    kind = spec.kind
    if kind in ("cyclic", "dihedral", "symmetric"):
        _require_int(spec.n, "n", kind)
        return {"cyclic": CyclicGroup, "dihedral": DihedralGroup, "symmetric": SymmetricGroup}[kind](spec.n)
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
    if kind in ("lattice", "free"):
        size = "dim" if kind == "lattice" else "rank"
        _require_int(getattr(spec, size), size, kind)
        _require_int(spec.radius, "radius", kind)
        if spec.radius < 1:
            raise ConstructionError(f"{kind} spec requires radius >= 1")
        return (LatticeBall if kind == "lattice" else FreeBall)(getattr(spec, size), spec.radius)
    raise ConstructionError(f"unknown group kind {kind!r}")


def _integer_form(form):
    """A ball form's entries as ints; a float or a bool raises TypeError."""
    if any(isinstance(x, bool) for x in form):  # operator.index reads True as 1
        raise TypeError(f"form entries must be integers, got {form!r}")
    return [operator.index(x) for x in form]


def _require_finite(group, what):
    if group.is_truncated:
        raise ConstructionError(f"{what} requires a finite group; use apply_truncated on balls")


def _element(group, g, error=ConstructionError, what="element"):
    """g, when it is an index of group: an int (not a bool) in
    0..order-1; otherwise raise error."""
    if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < group.order:
        raise error(f"{what} {g!r} is not a valid index for {group.name}")
    return g


def _require_int(value, field, kind):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConstructionError(f"{kind} spec requires integer field '{field}', got {value!r}")


def closure(group, seed_elements):
    """Smallest product-closed subset of a finite group containing the seeds.

    BFS saturation under right multiplication by the seed set, read off the
    seeds' `right_perm` rows.  In a finite group this semigroup closure
    automatically contains inverses and, when the seed set is nonempty, the
    identity, so it is then a subgroup.
    """
    _require_finite(group, "closure")
    seeds = sorted(set(seed_elements))
    rows = [group.right_perm(s).tolist() for s in seeds]
    reached, frontier = set(seeds), seeds
    while frontier:
        frontier = {row[g] for g in frontier for row in rows} - reached
        reached |= frontier
    return sorted(reached)


def _roots(parent, idx):
    """Roots of idx in a union-find forest whose parents point to smaller
    indices.  Pointer jumping first flattens the whole forest in place, so
    a chain of depth d takes log2(d) passes."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent[idx]
        parent[:] = grand


def _union(parent, lo, hi):
    """Join the classes of lo[i] and hi[i] for every i.  Each round hooks
    every larger root under the smallest root it is paired with, so a root
    stays the smallest member of its class."""
    while lo.size:
        a, b = _roots(parent, lo), _roots(parent, hi)
        apart = a != b
        a, b = a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        lo, hi = lo[apart], hi[apart]


def _parity(v):
    """Bit parity of each entry of an array of integers below 2^16."""
    for shift in (8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def _classes(n, perms):
    """Each index's class label in the graph with edges g -- perm[g] for
    every perm: the smallest index of its connected class.  The edges are
    joined by one `_union` per block of BLOCK_ENTRIES (at least one perm),
    so its edge-sized temporaries stay within a few blocks."""
    parent, perms = np.arange(n), np.asarray(perms, dtype=np.int64).reshape(-1, n)
    step = max(1, BLOCK_ENTRIES // n)
    for block in np.split(perms, range(step, len(perms), step)):
        _union(parent, np.tile(np.arange(n), len(block)), block.ravel())
    return _roots(parent, np.arange(n))


def generating_set(group):
    """Greedy generating set of a finite group: in index order, each element
    that the subgroup of the elements chosen so far has not reached joins
    (FiniteGroup.generator_masks)."""
    _require_finite(group, "generating_set")
    return list(group.generator_masks()[0])


def format_element(group, a):
    """Canonical text for one element.

    Cyclic and table-indexed kinds print the decimal index, lattice points
    print as JSON integer arrays, free-group words print as letters with
    a..z for generators and A..Z for inverses (empty string = identity).
    """
    _element(group, a)
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
        slots = []
        for ch in text:
            if "a" <= ch <= "z":
                letter = ord(ch) - ord("a") + 1
            elif "A" <= ch <= "Z":
                letter = -(ord(ch) - ord("A") + 1)
            else:
                raise ConstructionError(f"unknown letter {ch!r} in free-group word {text!r}")
            if abs(letter) > group.rank:
                raise ConstructionError(f"letter {ch!r} exceeds rank {group.rank} in word {text!r}")
            slots.append(2 * abs(letter) - 2 + (letter < 0))
        idx = group._reduce(slots)
        if idx is None:
            raise ConstructionError(f"word {text!r} reduces outside the radius-{group.radius} ball")
        return idx
    try:  # only the text format_element writes: ASCII digits, no sign, space, underscore or leading zero
        a = int(text)
    except ValueError:
        a = None
    if a is None or str(a) != text:
        raise ConstructionError(f"element of {group.name} must be a decimal index, got {text!r}")
    return _element(group, a)
