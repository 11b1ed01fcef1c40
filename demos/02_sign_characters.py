"""
Sign characters and anti-harmonic functions
===========================================

A function f is anti-harmonic when f * mu = -f.  Such functions exist exactly
when some character chi: G -> {+1, -1} equals -1 on the whole support of mu,
i.e. when the support avoids an index-2 subgroup.
"""

from groupwalk import (
    AlternatingGroup,
    CyclicGroup,
    DihedralGroup,
    FreeBall,
    anti_harmonic_space,
    find_anti_character,
    harmonic_space,
    uniform,
)

# Even cycle, odd steps: the parity character works.
z6 = CyclicGroup(6)
mu = uniform(z6, [1, 5])
chi = find_anti_character(z6, mu)
print("Z6, steps {1, 5}:", chi.values)
print("  kernel (the even coset):", chi.kernel())
print("  dim of {f : f*mu = -f}:", len(anti_harmonic_space(z6, mu)))
print("  dim of {f : f*mu = f}: ", len(harmonic_space(z6, mu)))
print()

# Odd cycle: no index-2 subgroup, so no character and no anti-harmonic
# functions at all.
z5 = CyclicGroup(5)
print("Z5, steps {1, 4}:", find_anti_character(z5, uniform(z5, [1, 4])))
print()

# Reflections of a square: chi distinguishes rotations from reflections.
d4 = DihedralGroup(4)
refl = uniform(d4, [4, 5, 6, 7])
print("D4, all reflections:", find_anti_character(d4, refl).values)
print()

# A4 is the classic counterexample: it has no subgroup of index 2, so no
# generating measure on it ever admits a sign character.
a4 = AlternatingGroup(4)
three_cycle = next(g for g in a4.elements() if g != 0 and a4.mul(g, a4.mul(g, g)) == 0)
print("A4, generated by a 3-cycle and its inverse:",
      find_anti_character(a4, uniform(a4, sorted({three_cycle, a4.inv(three_cycle)}))))
print()

# The search also runs on infinite-group truncations.  On a free-group ball
# the character counts occurrences of the generators carrying the support.
ball = FreeBall(2, 4)
gens = [ball.index_of_form(w) for w in ((1,), (-1,), (2,), (-2,))]
chi = find_anti_character(ball, uniform(ball, gens))
samples = ["", "a", "ab", "aBa", "abab"]
from groupwalk.groups import parse_element

print("F2 ball, both generators in the support -> chi = (-1)^length")
for text in samples:
    print(f"  chi({text or 'e'}) = {chi(parse_element(ball, text))}")
