"""Anatomy of a kernel: blocks, poles, principal parts.

Every series summand in the package is a derivative of a rational function
written once as a scalar times rising-factorial blocks (a ``Kernel``).  This
demo dissects the left kernel at (n, m) = (2, 1): its blocks, the linear
factors and pole pattern derived from them, the certified principal parts
read off the blocks, the points at which the certificate proves them, and
how derivative tails of the principal parts turn into zeta values.
"""

from fractions import Fraction

from apery4 import FormParameters, derivative_tail_sum, left_kernel
from apery4.apery_forms import _principal_parts

p = FormParameters(2, 1)
kernel = left_kernel(p)
print("the kernel: scalar, rising-factorial blocks (t + x)_k^e, loose factors:")
print(f"  scalar {kernel.scalar}")
for x, k, e in kernel.blocks:
    print(f"  block x = {x:>3}  k = {k}  exponent {e:+d}")
for s, e in kernel.linears:
    print(f"  loose (t + {s})  exponent {e:+d}")
print(f"degree (numerator minus denominator): {kernel.degree}")

# Every other view is derived from those blocks.  Flattened, they are linear
# factors (t + shift)^exponent, one per block entry; merging the exponents
# of equal shifts cancels most of them.
factors = kernel.factors
print(f"\n{len(factors)} linear factors (shift, exponent) after merging:")
print("  " + "  ".join(f"({s}, {e:+d})" for s, e in sorted(factors.items())))

# The merged factors leave the poles at shifts 0..n only, of order 4 but at
# n/2, where the loose factor cancels one.
orders = kernel.pole_orders()
print(f"pole orders after merging, shift: order: {dict(sorted(orders.items()))}")

# The principal parts come from local expansions of the rising-factorial
# blocks at each pole; nothing is expanded.  The left kernel is odd about
# t = -n/2, so only the poles with 2p <= n are expanded and the others
# mirrored, A_{n-p,j} = (-1)^(j+1) A_{p,j}.  The call also certifies them.
# They are (shift, numerators) pairs, integers over one common denominator N.
expansion = _principal_parts(kernel, "left side of (2, 1)")
print("\nprincipal parts (certified at points beyond the poles), "
      f"over N = {expansion.denominator}:")
for shift, numerators in expansion.terms:
    for j, numerator in enumerate(numerators, start=1):
        if numerator:
            print(f"  {numerator} / (N (t + {shift})^{j})")

# Kernel and parts are both (polynomial of degree < deg D) / D, so equality
# at deg D distinct points proves them equal.  Here both are odd about
# t = -n/2 (the kernel's centre is n), so their difference R/D is odd too,
# R = u^eps S(u^2) in u = t + n/2, and ceil(deg D / 2) points prove S = 0.
# The certificate takes the consecutive integers from the first point where
# every factor is positive, and there steps the kernel's value in integers
# (kernel.values).  The demo checks all deg D of them.
start = kernel.first_positive_point()
count = sum(orders.values())
print(f"\nodd about t = -{kernel.centre}/2, so the certificate reads the first "
      f"{(count + 1) // 2} of these deg D = {count} points, kernel value against the parts:")
for x, (num, den) in zip(range(start, start + count), kernel.values(start, count)):
    parts = sum(Fraction(c, expansion.denominator) / (x + shift) ** j
                for shift, numerators in expansion.terms
                for j, c in enumerate(numerators, start=1))
    print(f"  t = {x:>2}  kernel {Fraction(num, den)}  parts {parts}")
    assert parts == Fraction(num, den)

# Summing d/dt of each principal-part term from v = n-m+1 gives the exact
# linear form in zeta values -- all tails are shifted polyzeta tails.
tail = derivative_tail_sum(expansion, 1, p.n - p.m + 1)
print(f"\nsum of first derivatives from v = {p.n - p.m + 1}: {tail}")
print(f"scaled by -1/3 this is the left form: {Fraction(-1, 3) * tail}")
