"""Three ways to evaluate one series summand.

The tails and finite parts of the two series have printed closed formulas
in terms of harmonic numbers.  Those formulas are easy to mistranscribe,
so the package evaluates every summand by independent routes and compares
exactly:

* printed    -- the harmonic-number closed formula, typed in by hand,
* oracle     -- a structure-blind product and quotient rule on the
                kernel's integer expansion, applied to Taylor series at
                the point (its derivative chain's values),
* generated  -- the rising-factorial derivative rule applied to every
                factor at once, in logarithmic form: the local expansion
                that gives the exact forms their principal parts, read at a
                point where no factor vanishes.
"""

from fractions import Fraction

from apery4 import (FormParameters, Kernel, audit_summands, left_kernel,
                    left_tail_summand)
from apery4.apery_forms import _derivatives_at
from apery4.polyrat import DerivativeChain

# the rule that powers the generated route, on one factor: d/dt (1+t)_2 at 1
one_block = Kernel(Fraction(1), ((1, 2, 1),), ())
print(f"d/dt (1 + t)_2 at t = 1: {_derivatives_at(one_block, 1, 1)[1]}")

p = FormParameters(2, 1)
nu = 3
point = nu + 2 * p.n - p.m
# oracle and generated route start from the same kernel; only the printed
# formula is typed in separately
kernel = left_kernel(p)
printed = left_tail_summand(p, nu)
oracle = DerivativeChain(*kernel.expansion()).values(point, 1)[1]
generated = _derivatives_at(kernel, point, 1)[1]
print(f"\nleft tail summand at (n, m) = (2, 1), v = {nu}:")
print(f"  printed   {printed}")
print(f"  oracle    {oracle}")
print(f"  generated {generated}")
assert printed == oracle == generated

# the audit does this on sampled points for every cell and family
checks = audit_summands(n_max=6, samples=2, seed=0)
by_family: dict[str, int] = {}
for check in checks:
    assert check.agree, check
    by_family[check.family] = by_family.get(check.family, 0) + 1
print(f"\naudit: {len(checks)} comparisons, all in exact agreement")
for family in sorted(by_family):
    print(f"  {family:<10} {by_family[family]:>4}")
