"""Walking the grid by recurrence instead of by series.

The exact values Z(n, m) obey a three-term recurrence in m with explicit
integer coefficients, and the two boundary columns m = 0, 1 have closed
forms driven by partial sums of a central binomial series.  Together they
rebuild the whole triangular grid in linear time -- no series summation,
no partial fractions.  This demo races the two routes and shows the
boundary recurrences that pin the m = 0 column from both constructions.
"""

import time

from apery4 import FormParameters, left_form, right_form
from apery4.recurrence_lab import (closed_form_m0, closed_form_m1,
                                   left_boundary_check, left_boundary_value,
                                   recurrence_coefficients, recurrence_table,
                                   right_column_check)

N_MAX = 10

started = time.perf_counter()
series = {(n, m): left_form(FormParameters(n, m))
          for n in range(N_MAX + 1) for m in range(n + 1)}
series_seconds = time.perf_counter() - started

started = time.perf_counter()
table = recurrence_table(N_MAX)
table_seconds = time.perf_counter() - started

assert table == series
print(f"grid up to n = {N_MAX}: series route {series_seconds:.2f}s, "
      f"recurrence route {table_seconds:.3f}s, identical values")

print("\nrecurrence coefficients at n = 4:")
for m in range(3):
    a0, a1, a2 = recurrence_coefficients(4, m)
    print(f"  m = {m}: {a0} * Z(4,{m}) + {a1} * Z(4,{m + 1}) + {a2} * Z(4,{m + 2}) = 0")

print("\nboundary closed forms:")
print(f"  Z(3, 0) = {closed_form_m0(3)}")
print(f"  Z(3, 1) = {closed_form_m1(3)}")

# The m = 0 column is pinned a second time by column recurrences in n: an
# inhomogeneous first-order one whose right-hand side is a pure rational...
print("\nleft boundary combination -16(2n+1)^4 Z(n,0) - (n+1)^4 Z(n+1,0):")
for n in range(3):
    assert left_boundary_check(series, n)
    print(f"  n = {n}: {left_boundary_value(n)} (zeta parts cancel)")

# ...and a homogeneous second-order annihilator for the other construction.
right_column = {(n, 0): right_form(FormParameters(n, 0)) for n in range(5)}
for n in range(3):
    assert right_column_check(right_column, n)
print("right column annihilator verified for n = 0, 1, 2")
