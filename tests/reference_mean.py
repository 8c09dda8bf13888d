"""Exact-rational mean: the reference ``covertree.cover._mean`` is tested against.

The multiset's total is summed exactly in Fractions and rounded once to a
float, then divided once by the element count, which is what ``_mean``
promises for every multiset whose total fits in a float.  It shares no code
with ``_mean``: no fsum, no split and no count digits.
"""

from fractions import Fraction


def reference_mean(values, counts):
    """float(sum of Fraction(x) * c), correctly rounded, divided by sum(c)."""
    counts = [int(c) for c in counts]
    total = sum((Fraction(float(x)) * c for x, c in zip(values, counts)), Fraction(0))
    return float(total) / sum(counts)
