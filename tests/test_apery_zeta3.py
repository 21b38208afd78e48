"""An answer from outside the repository for the proof core: Apéry's zeta(3)
forms, through the unchanged engine.

For R(t) = (t-n)_n^2 / (t)_{n+1}^2, -1/2 sum_{v >= 1} R'(v) = a_n zeta(3) - b_n,
with a_n = sum_k C(n,k)^2 C(n+k,k)^2 and both a_n and b_n solutions of
Apéry's recurrence n^3 u_n - (34n^3 - 51n^2 + 27n - 5) u_(n-1)
+ (n-1)^3 u_(n-2) = 0 (R. Apéry, Astérisque 61 (1979); A. van der Poorten,
"A proof that Euler missed", Math. Intelligencer 1 (1979)).  The two sides
of the grid share the local expansions, the certificate and the tail sums,
and compare their values with each other; these numbers are known outside
the package, with a nonzero zeta(3) coordinate, which the grid never has.
The kernel has poles of order 2 and is even about t = -n/2, so it has no
proved centre and its certificate runs at every point.
"""

from fractions import Fraction
from math import comb

from apery4 import Kernel, derivative_tail_sum
from apery4.apery_forms import _principal_parts

N_MAX = 12


def _apery_form(n: int):
    kernel = Kernel(Fraction(1), ((-n, n, 2), (0, n + 1, -2)), ())
    assert kernel.centre is None
    return derivative_tail_sum(_principal_parts(kernel, f"Apery n = {n}"), 1, 1, Fraction(-1, 2))


def test_the_engine_gives_aperys_zeta3_forms():
    forms = [_apery_form(n) for n in range(N_MAX + 1)]
    a = [form.coefficient(3) for form in forms]
    b = [-form.constant for form in forms]
    assert a == [sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))
                 for n in range(N_MAX + 1)]
    assert b[:5] == [0, 6, Fraction(351, 4), Fraction(62531, 36), Fraction(11424695, 288)]
    for u in (a, b):
        assert [n ** 3 * u[n] - (34 * n ** 3 - 51 * n ** 2 + 27 * n - 5) * u[n - 1]
                + (n - 1) ** 3 * u[n - 2] for n in range(2, N_MAX + 1)] == [0] * (N_MAX - 1)
    assert ([[form.coefficient(s) for s in (2, 4, 5)] for form in forms]
            == [[0, 0, 0]] * (N_MAX + 1))
