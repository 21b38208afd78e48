"""Anatomy of a kernel: factored products, poles, principal parts.

Every series summand in the package is a derivative of a rational function
written once as a scalar times rising-factorial blocks.  This demo
dissects the left kernel at (n, m) = (2, 1): its blocks, the merged factor
structure and pole pattern derived from them, the certified principal parts
read off the blocks, the points at which the certificate proves them, and
how derivative tails of the principal parts turn into zeta values.
"""

from fractions import Fraction

from apery4 import FormParameters, derivative_tail_sum
from apery4.apery_forms import _left_blocks, _principal_parts

p = FormParameters(2, 1)
blocks = _left_blocks(p)
print("the spec: scalar, rising-factorial blocks (t + x)_k^e, loose factors:")
print(f"  scalar {blocks.scalar}")
for x, k, e in blocks.blocks:
    print(f"  block x = {x:>3}  k = {k}  exponent {e:+d}")
for s, e in blocks.linears:
    print(f"  loose (t + {s})  exponent {e:+d}")

# Every other view is derived from that spec; left_kernel(p) is this one.
kernel = blocks.factored()
print("\nfactored form (shift, exponent) pairs of (t + shift)^exponent:")
print(f"  scalar {kernel.scalar}")
for shift, exponent in kernel.factors:
    print(f"  shift {str(shift):>5}  exponent {exponent:+d}")
print(f"degree gap (denominator minus numerator): {kernel.degree_gap}")

# Merging already cancelled most candidate poles: the factors with negative
# exponent sit at shifts 0..n only.
print(f"denominator shifts after merging: {kernel.denominator_shifts()}")

# The principal parts come from local expansions of the rising-factorial
# blocks at each pole; nothing is expanded.  The call also certifies them:
# kernel and parts must agree at deg D integer points.
# They are integers over one common denominator N.
expansion = _principal_parts(blocks, "left side of (2, 1)")
print("\nprincipal parts (certified at deg D points beyond the poles), "
      f"over N = {expansion.denominator}:")
for term in expansion.terms:
    for j, numerator in enumerate(term.numerators, start=1):
        if numerator:
            print(f"  {numerator} / (N (t + {term.shift})^{j})")

# Kernel and parts are both (polynomial of degree < deg D) / D, so equality
# at deg D distinct points proves them equal.  The certificate takes the
# consecutive integers from the first point where every factor is positive,
# and there steps the kernel's value in integers (blocks.values).
start = blocks.first_positive_point()
count = kernel.denominator_degree
print(f"\nthe certificate's deg D = {count} points, kernel value against the parts:")
for x, (num, den) in zip(range(start, start + count), blocks.values(start, count)):
    parts = sum(Fraction(c, expansion.denominator) / (x + term.shift) ** j
                for term in expansion.terms for j, c in enumerate(term.numerators, start=1))
    print(f"  t = {x:>2}  kernel {Fraction(num, den)}  parts {parts}")
    assert parts == Fraction(num, den)

# Summing d/dt of each principal-part term from v = n-m+1 gives the exact
# linear form in zeta values -- all tails are shifted polyzeta tails.
tail = derivative_tail_sum(expansion, 1, p.n - p.m + 1)
print(f"\nsum of first derivatives from v = {p.n - p.m + 1}: {tail}")
print(f"scaled by -1/3 this is the left form: {Fraction(-1, 3) * tail}")
