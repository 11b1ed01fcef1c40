"""
Walks on infinite groups, truncated to balls
============================================

Infinite groups are handled through finite balls of bounded word length.
Convolution is only trusted at interior points, where every step of the
walk stays inside the ball; everything there is exact.
"""

from fractions import Fraction

from groupwalk import FreeBall, GroupFunction, LatticeBall, apply_truncated, uniform

# The line: ball of radius 50, steps +-1, f(n) = (-1)^n.
line = LatticeBall(1, 50)
mu = uniform(line, [line.index_of_form((1,)), line.index_of_form((-1,))])
f = GroupFunction(
    line, [Fraction(-1) if line.length(g) % 2 else Fraction(1) for g in line.elements()]
)

rf, interior = apply_truncated(line, mu, f, "right")
negated = all(rf.values[g] == -f.values[g] for g in interior)
back, deep = apply_truncated(line, mu, rf, "left")
restored = all(back.values[g] == f.values[g] for g in deep)

print(f"line ball radius 50: {line.order} points, {len(interior)} interior")
print(f"  f * mu = -f at every interior point: {negated}")
print(f"  mu * f * mu = f at all {len(deep)} doubly interior points: {restored}")
print()

# The free group on two letters: the radius-6 ball has 1457 reduced words.
free = FreeBall(2, 6)
gens = [free.index_of_form(w) for w in ((1,), (-1,), (2,), (-2,))]
step = uniform(free, gens)
parity = GroupFunction(
    free, [Fraction(-1) if free.length(g) % 2 else Fraction(1) for g in free.elements()]
)

right_step, r_int = apply_truncated(free, step, parity, "right")
left_step, l_int = apply_truncated(free, step, parity, "left")

print(f"free ball radius 6: {free.order} words, {len(r_int)} interior")
print("  f * mu = -f on the interior:", all(right_step.values[g] == -parity.values[g] for g in r_int))
print("  mu * f = -f on the interior:", all(left_step.values[g] == -parity.values[g] for g in l_int))
