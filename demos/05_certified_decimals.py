"""Certified decimals: exact error bounds from first principles.

Nothing in the package floats.  Decimal output comes from fixed-point
integers with an exact rational bound on the error, zeta constants come
from an Euler-Maclaurin sum with a proven remainder bound, and the series
themselves can be re-summed numerically with an exact tail closure -- an
end-to-end cross-check of the exact pipeline through ordinary arithmetic.
"""

from apery4 import (FormParameters, evaluate_decimal, left_form,
                    left_form_numeric, right_form_numeric, zeta_value)

print("zeta constants with certified error bounds:")
for s in (2, 3, 4, 5):
    fx = zeta_value(s, 40)
    print(f"  zeta({s}) = {fx}")
    print(f"           +/- {float(fx.error_bound):.2e}")

p = FormParameters(2, 0)
exact = left_form(p)
print(f"\nZ(2, 0) = {exact}")

# route 1: plug certified zeta values into the exact coordinates
direct = evaluate_decimal(exact, 30)
print(f"  exact coordinates + certified zeta(4):  {direct}")

# route 2: sum the first hundred or so terms of each defining series exactly
# (integer quotient-rule derivatives of the expanded kernel; the right side
# sums its n+1 kernels into one first), then close the tail by Euler-Maclaurin
# at the least depth whose remainder bound meets the target, a bound read off
# the kernel's expansion by Cauchy's estimate (exact Bernoulli numbers; no
# zeta constant is consulted)
numeric_left = left_form_numeric(p, 30)
print(f"  left series, truncated and tail-closed: {numeric_left}")

numeric_right = right_form_numeric(p, 30)
print(f"  right series, truncated and tail-closed: {numeric_right}")

assert direct.agrees_with(numeric_left, 25)
assert direct.agrees_with(numeric_right, 25)
print("\nall three decimals agree to at least 25 significant digits,")
print("within the sum of their certified error bounds")
