"""Reference character search over one GF(2) unknown per element.

The library searches sign characters over one sign per generator
(`FiniteGroup.generator_masks`).  This module keeps the element-level
formulation as the test oracle: an incremental GF(2) solver with bitset
rows, the greedy generating set taken by one closure per candidate, and
the system x_e = 0, x_(g t) = x_g + x_t for every element g and each
greedy generator t, with the support pinned to 1.
"""

from groupwalk.groups import closure


class GF2System:
    """Incremental GF(2) linear system with bitset rows.

    Equations are ``mask . x = rhs`` where ``mask`` packs variable
    coefficients as integer bits.  Rows are kept in echelon form keyed by
    their lowest set bit, which makes feasibility checks O(rows).
    """

    def __init__(self):
        self.rows = {}  # pivot bit position -> (mask, rhs)
        self.contradiction = False

    def _reduce(self, mask, rhs):
        while mask:
            pivot = (mask & -mask).bit_length() - 1
            if pivot not in self.rows:
                return mask, rhs, pivot
            row_mask, row_rhs = self.rows[pivot]
            mask ^= row_mask
            rhs ^= row_rhs
        return 0, rhs, None

    def add(self, mask, rhs):
        """Insert one equation.  Returns False when it contradicts the system."""
        if self.contradiction:
            return False
        mask, rhs, pivot = self._reduce(mask, rhs)
        if pivot is None:
            if rhs:
                self.contradiction = True
                return False
            return True
        self.rows[pivot] = (mask, rhs)
        return True

    def consistent_with(self, mask, rhs):
        """Would (mask, rhs) be consistent, without inserting it?"""
        if self.contradiction:
            return False
        reduced_mask, reduced_rhs, _ = self._reduce(mask, rhs)
        return bool(reduced_mask) or not reduced_rhs

    def lex_min_solution(self, nvars):
        """Lexicographically smallest solution vector (x_0, ..., x_{nvars-1}).

        Greedy per variable: fix the earliest undetermined bit to 0 whenever
        the system stays consistent, else to 1.  Returns None when the system
        is contradictory.
        """
        if self.contradiction:
            return None
        scratch = GF2System()
        scratch.rows = dict(self.rows)
        bits = []
        for i in range(nvars):
            mask = 1 << i
            if scratch.consistent_with(mask, 0):
                scratch.add(mask, 0)
                bits.append(0)
            else:
                scratch.add(mask, 1)
                bits.append(1)
        return bits


def closure_generating_set(group):
    """Greedy generating set: in index order, each element that the closure
    of the elements chosen so far has not reached joins."""
    gens, reached = [], {group.identity}
    for g in group.elements():
        if g not in reached:
            gens.append(g)
            reached = set(closure(group, gens))
    return gens


def per_element_character(group, mu):
    """Lex-min sign character -1 on the support of mu, as a list of +-1,
    from one unknown per element and n |T| + 1 + |S| equations, or None."""
    system = GF2System()
    system.add(1 << group.identity, 0)
    for t in closure_generating_set(group):
        for g in group.elements():
            system.add((1 << g) ^ (1 << t) ^ (1 << group.mul(g, t)), 0)
    for s in mu.support():
        system.add(1 << s, 1)
    bits = system.lex_min_solution(group.order)
    return None if bits is None else [1 if b == 0 else -1 for b in bits]
