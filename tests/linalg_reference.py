"""Normalization of the tests' exact elimination oracles.

The library's bases need no rescaling (class indicators and colourings
already have a leading 1), so the rule that scales a rational_nullspace
vector to that form lives here, beside the oracles that use it.
"""


def normalize_leading(vec, cutoff=0.0):
    """Scale a vector so the first entry is 1 when nonzero, else the first
    nonzero entry is 1.  Works for Fraction and float entries alike."""
    lead = None
    for x in vec:
        if abs(x) > cutoff:
            lead = x
            break
    if lead is None:
        return list(vec)
    return [x / lead for x in vec]
