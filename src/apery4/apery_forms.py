"""The two families of linear forms in {1, zeta(4)} and their summands.

For integer parameters n >= m >= 0 the package studies two rational kernels,

* the *left* kernel, a degree-gap-3 product of shifted rising factorials with
  an extra (t + n/2) factor (a one-factor block at even n, the cofactor
  2t + n at odd n), and
* the *right* kernel, a sum over j = 0..n of degree-gap-2 products weighted
  by squared binomials, which share their blocks B: one kernel P(t) B(t),

and the exact values

    left_form  = -1/3 * sum_{v >= n-m+1} (d/dt left kernel)(v),
    right_form = +1/6 * sum_{v >= 1}   (d^2/dt^2 right kernel)(v),

each an exact linear form in zeta values (in fact in {1, zeta(4)} alone —
the zeta(2), zeta(3), zeta(5) coordinates cancel).  The central verified
claim is left_form == right_form componentwise on the whole parameter grid.

Each kernel is written down once, as a :class:`Kernel` (:func:`left_kernel`,
:func:`right_kernel`); its pole orders, integer expansion, principal parts
and generated route all derive from it.  Each form sums the derivative tails
of its kernel's principal parts termwise (see :mod:`apery4.zeta_forms`),
read off the blocks at each pole (:class:`_LocalExpansion`) and proved by an
always-on certificate (:func:`_certify`).  The left kernel is odd about
t = -n/2 (:attr:`Kernel.centre`), so half its poles are mirrored and half
its points suffice.

The module also carries the three independent evaluation routes for the
*summands* (the term values of the split series):

1. printed closed formulas in terms of harmonic numbers
   (:func:`left_tail_summand`, :func:`left_mid_summand`,
   :func:`right_mid_summand`, :func:`right_low_summand`),
2. a structure-blind polynomial oracle (the product and quotient rule on
   the kernel's linear factors, on Taylor series at the point, one
   :class:`polyrat.DerivativeChain` per kernel), and
3. a generated route applying the rising-factorial derivative rule (power
   sums over each block as harmonic differences) to every factor in
   logarithmic form: the local expansion that yields the principal parts,
   read at a point where no factor vanishes (:func:`_derivative_numerators`).

:func:`audit_summands` samples parameter cells and compares the routes
pointwise; any disagreement is reported, none is expected.

Finally, :func:`left_form_numeric` / :func:`right_form_numeric` re-sum the
defining series (:func:`_series_numeric`), a cross-check free of partial
fractions.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from fractions import Fraction
from functools import cache, cached_property
from math import ceil, comb, gcd, inf, isqrt, lcm, prod, sqrt
from numbers import Rational
from operator import mul

from .errors import (DivergenceError, DomainError, RangeError,
                     ReconstructionError, checked)
from .exact_arith import _factorials, _power_sums, factorial, harmonic, pochhammer
from .polyrat import (DerivativeChain, PartialFractions, _Value, _linear_product,
                      _merged_shifts, _mul_coeffs, _times_linear)
from .zeta_forms import (FixedPointNumber, ZetaLinearForm, _closure, bernoulli_even,
                         derivative_tail_sum)

__all__ = [
    "FormParameters",
    "Kernel",
    "left_kernel",
    "right_kernel",
    "left_form",
    "right_form",
    "verify_cell",
    "left_tail_summand",
    "left_mid_summand",
    "right_mid_summand",
    "right_low_summand",
    "SummandCheck",
    "audit_summands",
    "left_form_numeric",
    "right_form_numeric",
]

_F = Fraction


class FormParameters(_Value):
    """A grid cell (n, m) of ints with 0 <= m <= n."""

    _fields = __slots__ = ("n", "m")

    def __init__(self, n: int, m: int) -> None:
        object.__setattr__(self, "n", checked(n, "n", 0))
        object.__setattr__(self, "m", checked(m, "m", 0, n))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class Kernel(_Value):
    """scalar * prod (t+x)_k^e over blocks, times an integer cofactor
    polynomial (ascending; 1 but on the right and on the left at odd n).
    The scalar is rational, x, k >= 0, e and the cofactor's coefficients
    ints, each field a tuple, the cofactor not empty and its top coefficient
    nonzero (so :attr:`degree` is exact): every shift is an int.

    The one written form of a kernel (see :func:`left_kernel`,
    :func:`right_kernel`).  The local expansions (:class:`_LocalExpansion`)
    read its rising-factorial blocks, at the poles for the principal parts
    and at regular points for the generated route; each method derives one
    other view of it.
    """

    _fields = ("scalar", "blocks", "cofactor")
    __slots__ = _fields + ("__dict__",)             # the cached views below

    def __init__(self, scalar: Fraction, blocks: tuple[tuple[int, int, int], ...],
                 cofactor: tuple[int, ...] = (1,)) -> None:
        checked(scalar, "scalar", kind=Rational)
        for block in checked(blocks, "blocks", kind=tuple):
            checked(len(checked(block, "block", kind=tuple)), "block size", 3, 3)
            checked(block[0], "block x"), checked(block[2], "block e")
            checked(block[1], "block k", 0)
        for c in checked(cofactor, "cofactor", kind=tuple):
            checked(c, "cofactor coefficient")
        if checked(len(cofactor), "cofactor size", 1) and cofactor[-1] == 0:
            raise DomainError(f"need a cofactor with a nonzero top coefficient, got {cofactor}")
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "cofactor", cofactor)

    @property
    def degree(self) -> int:
        """deg(numerator) - deg(denominator)."""
        return sum(self.factors.values()) + len(self.cofactor) - 1

    @cached_property
    def factors(self) -> dict[int, int]:
        """{shift: exponent} of every linear factor, the blocks flattened to
        (t + x + i)^e and equal shifts merged; the cofactor is left out.
        Merged once per kernel."""
        return _merged_shifts((x + i, e) for x, k, e in self.blocks for i in range(k))

    @cached_property
    def centre(self) -> int | None:
        """c if the kernel is proved odd about t = -c/2 from its spec, else
        None: :attr:`factors` mapped onto themselves by s -> c - s, c the
        least plus the largest shift, and the cofactor Q(-c-t) =
        -(-1)^(sum e) Q(t), checked in integers, so f(-c-t) = -f(t)."""
        c = min(self.factors, default=0) + max(self.factors, default=0)
        if self.factors != {c - s: e for s, e in self.factors.items()}:
            return None
        reflected = []                                  # Q(-c-t), by Horner
        for q in reversed(self.cofactor):
            reflected = _times_linear(reflected, -c, -1)
            reflected[0] += q
        sign = (-1) ** (sum(self.factors.values()) + 1)
        return c if reflected == [sign * q for q in self.cofactor] else None

    def pole_orders(self) -> dict[int, int]:
        """{shift p: order} of the poles t = -p: the negative exponents of
        :attr:`factors`."""
        return {s: -e for s, e in self.factors.items() if e < 0}

    def expansion(self) -> tuple[list[int], Fraction, list[tuple[int, int]]]:
        """(N, K, [(s, e < 0)]): the merged kernel as K N(t) prod (t + s)^e,
        its numerator multiplied out, its poles kept factored."""
        coeffs, _ = _linear_product((s, e) for s, e in self.factors.items() if e > 0)
        if self.cofactor != (1,):
            coeffs = _mul_coeffs(coeffs, self.cofactor)
        return coeffs, self.scalar, [(s, e) for s, e in self.factors.items() if e < 0]

    def first_positive_point(self) -> int:
        """The least integer t at which every factor is positive."""
        return max((1 - x for x, k, _ in self.blocks if k > 0), default=1)

    def values(self, start: int, count: int) -> list[tuple[int, int]]:
        """g(start), ..., g(start + count - 1) as unreduced integer pairs,
        each run prod_{i<k} (t + c + i)^e stepped by its new top over its old
        bottom, an exact division.  Every factor must be positive at ``start``."""
        num, den = self.scalar.as_integer_ratio()
        sides = ([(c, k, e) for c, k, e in self.blocks if k and e > 0],
                 [(c, k, -e) for c, k, e in self.blocks if k and e < 0])
        products = [prod(prod(range(start + c, start + c + k)) ** e
                         for c, k, e in side) for side in sides]     # [N, Q]
        out = []
        for t in range(start, start + count):
            cofactor = 0
            for c in reversed(self.cofactor):
                cofactor = cofactor * t + c
            out.append((num * cofactor * products[0], den * products[1]))
            for i, side in enumerate(sides):
                top = bottom = 1
                for c, k, e in side:
                    base = t + c
                    top *= (base + k) ** e
                    bottom *= base ** e
                products[i] = products[i] * top // bottom
        return out


def left_kernel(p: FormParameters) -> Kernel:
    """The left kernel (degree gap 3):

    (-1)^m n!^2 / (m! (2n-m)!) * (t + n/2)
      * (t-n)_m (t-2n+m)_{2n-m} (t+n+1)_n (t+n+1)_{2n-m}
      / ((t)_{n+1}^3 (t)_{2n-m+1})

    After merging, its poles sit at t = -n..0 with order 4 (order 3 at
    t = -n/2 for even n, where (t + n/2) cancels one).  Every shift is an
    int: at even n, (t + n/2) is the one-factor block (t + n/2)_1; at odd n
    it is the cofactor 2t + n, the scalar halved.  The cofactor would
    vanish at the pole t = -n/2 of an even n, which the factors alone
    cannot see.
    """
    n, m = checked(p, "p", kind=FormParameters).n, p.m
    scalar = _F((-1) ** m * factorial(n) ** 2, factorial(m) * factorial(2 * n - m))
    blocks = ((-n, m, 1), (m - 2 * n, 2 * n - m, 1), (n + 1, n, 1),
              (n + 1, 2 * n - m, 1), (0, n + 1, -3), (0, 2 * n - m + 1, -1))
    if n % 2:
        return Kernel(scalar / 2, blocks, (n, 2))
    return Kernel(scalar, blocks + ((n // 2, 1, 1),))


def _right_spec(p: FormParameters) -> tuple[tuple[int, int, int], ...]:
    """The blocks of the right kernel's shared factor
    B = (t-n)_{2n-m} / ((t)_{n+1} (t)_{2n-m+1}): its j-th term, 0 <= j <= n,
    is C_j (t-j)_n B (degree gap 2), C_j below."""
    n, m = p.n, p.m
    return (-n, 2 * n - m, 1), (0, n + 1, -1), (0, 2 * n - m + 1, -1)


def _right_weight(p: FormParameters, j: int) -> int:
    """The weight C_j = C(n,j)^2 C(2n-m+j, n) of the right kernel's j-th term."""
    return comb(p.n, j) ** 2 * comb(2 * p.n - p.m + j, p.n)


def _right_blocks(p: FormParameters, j: int) -> Kernel:
    """The j-th term of the right kernel, C_j (t-j)_n B (see :func:`_right_spec`)."""
    checked(j, "j", 0, p.n)
    return Kernel(_F(_right_weight(p, j)), ((-j, p.n, 1),) + _right_spec(p))


def right_kernel(p: FormParameters) -> Kernel:
    """The summed right kernel P(t) B(t) (degree gap 2), P = sum_j C_j (t-j)_n
    in integers.

    As (t-j)_n = (t-j)_j (t)_{n-j}, P = a_n with a_j = (t+n-j) a_(j-1) +
    C_j (t-j)_j.  P vanishes at no pole of B, so P B has B's pole orders:
    at t = -q, q >= 0, (t-j)_n is 0 for j < n-q and (-1)^n (q+j-n+1)_n
    otherwise, so P(-q) = (-1)^n sum_{j >= n-q} C_j (q+j-n+1)_n, a sum of
    terms of one sign that always includes j = n.
    """
    cofactor, falling = [], [1]
    for j in range(checked(p, "p", kind=FormParameters).n + 1):    # falling = (t-j)_j
        weight = _right_weight(p, j)
        cofactor = [c + weight * f for c, f in zip(_times_linear(cofactor, p.n - j, 1), falling)]
        falling = _times_linear(falling, -j - 1, 1)
    return Kernel(_F(1), _right_spec(p), tuple(cofactor))


# ---------------------------------------------------------------------------
# principal parts from the block structure, with a point-evaluation certificate
# ---------------------------------------------------------------------------


class _LocalExpansion:
    """Local expansions of block products at integer points, all in integers:
    the principal parts at a pole (:func:`_principal_parts`), and the Taylor
    coefficients where no factor vanishes (:func:`_derivative_numerators`).

    At t = -p, expanded as a pole of order E, put u = t + p.  Each block
    factor (t + c) with a = c - p != 0 is a (1 + u/a); the factors with
    a = 0 are the powers of u.  So near u = 0 a kernel times u^E is
    C exp(sum_r c_r u^r), where C is the scalar times the product of the a^e
    (signed factorial quotients over each block) and r c_r =
    (-1)^(r+1) P_r / L^r with P_r = L^r sum e a^-r an integer: L = lcm(1..top)
    for a ``top`` covering every |a| at the points the engine is built for,
    so the power sums over a block are differences
    of the integer harmonic table h[r][i] = L^r S_r(i).  The series
    g = exp(sum c_r u^r) has g_k = G_k / (k! L^k) with integer G_0 = 1 and
    G_k = sum_{i=1..k} (-1)^(i+1) P_i G_(k-i) (k-1)!/(k-i)!,
    and the coefficient of u^-j is A_j = C g_(E-j), or sum_i Q_i A_(j+i)
    with a cofactor Q = sum_i Q_i u^i (Taylor coefficients by synthetic
    division).  At a pole of order E these are the principal parts; where
    no factor vanishes, A_j is the kernel's Taylor coefficient of u^(E-j).
    Block products, recursion ratios and order multipliers come from tables.
    """

    def __init__(self, kernel: Kernel, shifts: list[int], depth: int) -> None:
        """Tables for expansions of ``kernel`` at t = -shift, for each of
        ``shifts``, up to ``depth`` terms; :meth:`part` reads that kernel.
        |a| is largest at the least or the largest shift, and the
        power-sum rows are the shared ones of that top (:func:`_power_sums`)."""
        self.kernel, self.shifts, top = kernel, set(shifts), 0
        if shifts:
            low, high = min(shifts), max(shifts)
            # a block's a = x + i - shift runs over [x - high, x + k - 1 - low]
            top = max((max(x + k - 1 - low, high - x) for x, k, _ in kernel.blocks if k > 0),
                      default=0)
        self.scale, self.table = _power_sums(top, range(1, depth))
        self.factorials = _factorials(max(top, depth))
        self.ratios = _recursion_weights(depth)
        self.multipliers = _order_multipliers(self.scale, depth)

    def part(self, shift: int, order: int) -> tuple[list[int], int]:
        """(numerators of A_1..A_order, common denominator) of the kernel at
        t = -shift, a shift the tables cover (RangeError otherwise), order <= depth.

        The denominator is the one of C times (order-1)! L^(order-1).
        """
        if shift not in self.shifts:
            raise RangeError(f"no tables for shift {shift}, only {sorted(self.shifts)}")
        kernel, table, factorials = self.kernel, self.table, self.factorials
        num, den = kernel.scalar.numerator, kernel.scalar.denominator
        sums = [0] * order                  # sums[r] = P_r
        for x, k, e in kernel.blocks:
            low, high = x - shift, x - shift + k - 1
            # the nonzero a in [low, high] as runs of one sign, |a| = first..last
            for sign, first, last in ((1, low if low > 1 else 1, high),
                                      (-1, -high if high < -1 else 1, -low)):
                if first > last:
                    continue
                product = factorials[last] // factorials[first - 1]
                if sign < 0 and (last - first) % 2 == 0:    # an odd count of a < 0
                    product = -product
                num, den = (num * product ** e, den) if e > 0 else (num, den * product ** -e)
                weight = e
                for r in range(1, order):                   # weight = e sign^r
                    weight *= sign
                    sums[r] += weight * (table[r][last] - table[r][first - 1])
        series = [1]
        for k in range(1, order):
            g = 0
            for i, ratio in enumerate(self.ratios[k], 1):
                g += ratio * sums[i] * series[k - i]
            series.append(g)
        # A_j = num G_(E-j) / (den (E-j)! L^(E-j)), over den (E-1)! L^(E-1)
        multipliers = self.multipliers[order]
        parts = [num * g * w for g, w in zip(reversed(series), multipliers)]
        if kernel.cofactor != (1,):         # else Q's Taylor coefficients are 1, 0, ...
            taylor, coeffs = [], kernel.cofactor[::-1]
            for _ in range(order):          # divide by (t + shift), keep the remainder
                quotient, rest = [], 0
                for c in coeffs:
                    rest = c - shift * rest
                    quotient.append(rest)
                taylor.append(quotient.pop() if quotient else 0)
                coeffs = quotient
            parts = [sum(map(mul, taylor, parts[j:])) for j in range(order)]
        return parts, den * multipliers[-1]


@cache
def _order_multipliers(scale: int, depth: int) -> tuple[tuple[int, ...], ...]:
    """multipliers[order][j-1] = (order-1)!/(order-j)! L^(j-1), j = 1..order,
    for each order <= ``depth``, L = ``scale``: what turns G_(order-j) into
    A_j over the last one (:class:`_LocalExpansion`)."""
    factorials = _factorials(depth)
    return tuple(tuple(factorials[order - 1] // factorials[order - j] * scale ** (j - 1)
                       for j in range(1, order + 1)) for order in range(depth + 1))


@cache
def _recursion_weights(depth: int) -> tuple[tuple[int, ...], ...]:
    """ratios[k][i-1] = (-1)^(i+1) (k-1)!/(k-i)! for k < ``depth``: the
    weights of G_k's recursion (:class:`_LocalExpansion`)."""
    factorials = _factorials(depth)
    return tuple(tuple((-1) ** (i + 1) * factorials[k - 1] // factorials[k - i]
                       for i in range(1, k + 1)) for k in range(depth))


def _certify(kernel: Kernel, expansion: PartialFractions, where: str) -> None:
    """Prove that ``expansion`` is the partial-fraction form of ``kernel``.

    The poles and their orders are the kernel's own
    (:meth:`Kernel.pole_orders`, the negative exponents of the merged
    factors), never the caller's.  The kernel must vanish at infinity, and
    the expansion must have no term above its pole's order (none at a shift
    that is no pole) nor a zero top numerator (a cofactor that vanishes at a
    pole, which the factors miss).
    With D = prod (t+p)^E_p over those orders, the kernel f and the
    expansion F both equal (polynomial of degree < deg D) / D, so
    f - F = R/D with deg R < deg D, and f == F at deg D distinct points
    proves R = 0.  The points are integers from t = 1 on
    (:func:`_certificate_points`): below the kernel's first positive point
    only the zeros of a merged numerator factor, which are no poles, and
    f = 0 there with no value computed; from the first positive point on,
    consecutive integers where every factor is positive, f = num/den
    (:meth:`Kernel.values`).  At each point one pass over every term
    accumulates parts / prefix = N F(x), N the expansion's denominator:
    parts = parts (x+p)^E + H(x) prefix and prefix *= (x+p)^E, H the Horner
    value of the term's numerators padded to its pole's order E, started
    from the leading numerator.

    ceil(deg D / 2) points suffice when (a) the kernel is proved odd about
    t = -c/2 from the merged factors that give the poles and the cofactor
    (:attr:`Kernel.centre`), f(-c-t) = -f(t), and (b) mirroring every term,
    p -> c - p and A_{p,j} -> (-1)^(j+1) A_{p,j}, gives back the same terms
    (as a multiset), so F(-c-t) = -F(t) too.  The orders are the merged
    poles, which the reflection maps onto themselves, so
    D(-c-t) = (-1)^(deg D) D(t); then R(-c-t) = (-1)^(deg D + 1) R(t), and
    in u = t + c/2, R = u^eps S(u^2) with eps = (deg D + 1) mod 2 and
    2 deg S + eps < deg D, so deg S < ceil(deg D / 2).  Every point x
    exceeds -c/2 (the zeros are taken only there, and every factor is
    positive at the others), so the u^2 are distinct and nonzero, and
    ceil(deg D / 2) zeros of R prove S = 0.  Otherwise every point runs.
    Raises ReconstructionError naming ``where`` on any mismatch.
    """
    if kernel.degree >= 0:
        raise ReconstructionError(f"{where}: kernel does not vanish at infinity")
    orders, terms = kernel.pole_orders(), []
    for shift, numerators in expansion.terms:
        order = orders.get(shift, 0)
        if len(numerators) > order or numerators[-1] == 0:
            raise ReconstructionError(
                f"{where}: term of order {len(numerators)} at shift {shift} exceeds "
                "the kernel's pole order there or has a zero top numerator")
        terms.append((shift, order, numerators + (0,) * (order - len(numerators))))

    scale, centre = expansion.denominator, kernel.centre
    least, count = 1, sum(orders.values())
    if centre is not None and sorted(terms) == sorted(
            (centre - shift, order, tuple((-1) ** j * c for j, c in enumerate(numerators)))
            for shift, order, numerators in terms):
        least, count = max(1, -centre // 2 + 1), (count + 1) // 2
    terms = [(shift, order, numerators[0], numerators[1:]) for shift, order, numerators in terms]
    for x, num, den in _certificate_points(kernel, least, count):
        parts, prefix = 0, 1
        for shift, order, horner, rest in terms:
            base = x + shift
            for c in rest:
                horner = horner * base + c
            power = base ** order
            parts = parts * power + horner * prefix
            prefix *= power
        if num * scale * prefix != parts * den:
            raise ReconstructionError(
                f"{where}: principal parts disagree with the kernel at t = {x}")


def _certificate_points(kernel: Kernel, least: int, count: int) -> list[tuple[int, int, int]]:
    """(x, num, den) with f(x) = num/den at ``count`` distinct integers, no
    pole among them: the zeros of a merged numerator factor from ``least`` up
    to :meth:`Kernel.first_positive_point`, as 0/1 with no value computed,
    then consecutive points from there (:meth:`Kernel.values`)."""
    first = kernel.first_positive_point()
    zeros = [(x, 0, 1) for x in range(least, first) if kernel.factors.get(-x, 0) > 0][:count]
    return zeros + [(x, num, den) for x, (num, den)
                    in enumerate(kernel.values(first, count - len(zeros)), first)]


def _principal_parts(kernel: Kernel, where: str) -> PartialFractions:
    """Certified partial fractions of ``kernel``: one local expansion
    (:class:`_LocalExpansion`) per pole, in integers, with nothing expanded
    into a dense polynomial, rescaled to one positive denominator and reduced
    by the gcd in the same pass (:class:`PartialFractions` takes them as they
    come), and proved by :func:`_certify`.

    A kernel proved odd about t = -c/2 (:attr:`Kernel.centre`; the left
    kernel, c = n) is expanded only at the poles with 2p <= c; the others
    are mirrored, A_{c-p,j} = (-1)^(j+1) A_{p,j}, over the partner's
    denominator, and :func:`_certify` proves them at half the points.
    """
    orders, centre = kernel.pole_orders(), kernel.centre
    local = _LocalExpansion(kernel, list(orders), max(orders.values(), default=1))
    parts = {}
    for shift in sorted(orders):
        if centre is None or 2 * shift <= centre:
            parts[shift] = local.part(shift, orders[shift])
        else:
            numerators, den = parts[centre - shift]
            parts[shift] = [(-1) ** j * c for j, c in enumerate(numerators)], den
    common = lcm(*(den for _, den in parts.values()))
    parts = {shift: (numerators, common // den) for shift, (numerators, den) in parts.items()}
    g = gcd(common, *(factor * gcd(*numerators) for numerators, factor in parts.values()))
    expansion = PartialFractions(tuple(
        (shift, tuple(c * factor // g for c in numerators))
        for shift, (numerators, factor) in parts.items()), common // g)
    _certify(kernel, expansion, where)
    return expansion


# ---------------------------------------------------------------------------
# exact form values
# ---------------------------------------------------------------------------


def _left_expansion(p: FormParameters) -> PartialFractions:
    return _principal_parts(left_kernel(p),
                            f"left side of cell (n, m) = ({p.n}, {p.m})")


def _right_expansion(p: FormParameters) -> PartialFractions:
    """The certified parts of the summed right kernel P B (:func:`right_kernel`)."""
    return _principal_parts(right_kernel(p),
                            f"right side of cell (n, m) = ({p.n}, {p.m})")


def left_form(p: FormParameters) -> ZetaLinearForm:
    """Exact value of the left form: -1/3 sum_{v >= n-m+1} (d/dt kernel)(v)."""
    return derivative_tail_sum(_left_expansion(p), 1, p.n - p.m + 1, _F(-1, 3))


def right_form(p: FormParameters) -> ZetaLinearForm:
    """Exact value of the right form: 1/6 sum_{v >= 1} (d^2/dt^2 P B)(v), one
    expansion, certificate and tail sum on the summed kernel.
    """
    return derivative_tail_sum(_right_expansion(p), 2, 1, _F(1, 6))


def verify_cell(n: int, m: int) -> dict:
    """One grid cell as a plain record (picklable, for workers and reports),
    its two exact forms under ``left`` and ``right``."""
    started = time.perf_counter()
    p = FormParameters(n, m)
    lhs = left_form(p)
    rhs = right_form(p)
    return {
        "n": n,
        "m": m,
        "left": lhs,
        "right": rhs,
        "identityPass": lhs == rhs,
        "pureWeight4": lhs.is_pure_weight4() and rhs.is_pure_weight4(),
        "elapsedMs": round((time.perf_counter() - started) * 1000.0, 3),
    }


# ---------------------------------------------------------------------------
# the generated route: the rising-factorial derivative rule at a point
# ---------------------------------------------------------------------------


def _derivative_numerators(kernel: Kernel, point: int, order: int) -> tuple[list[int], int]:
    """([N_0, ..., N_order], D) with g^(k)(point) = N_k / D for ``kernel``,
    cofactor included, unreduced.

    The generated summand route: the rising-factorial derivative rule,
    d/dt (t+x)_k = (t+x)_k (S_1(t+x+k-1) - S_1(t+x-1)), applied to every
    factor at once through log g, to any order.  Where no factor vanishes,
    the local expansion (:class:`_LocalExpansion`) at ``point`` as a pole of
    order ``order + 1`` has the Taylor coefficients g^(k)(point)/k! as its
    numerators.  DomainError below ``kernel.first_positive_point()``.
    """
    first = kernel.first_positive_point()
    if point < first:
        raise DomainError(f"derivative rule needs t >= {first}, where every factor "
                          f"is positive, got t = {point}")
    local = _LocalExpansion(kernel, [-point], order + 1)
    numerators, den = local.part(-point, order + 1)
    return [local.factorials[k] * numerators[order - k] for k in range(order + 1)], den


# ---------------------------------------------------------------------------
# printed summand formulas (harmonic-number closed forms)
# ---------------------------------------------------------------------------


def _rising_ext(x: int, k: int) -> Fraction:
    """(x)_k extended to negative k by (x)_{-k} = 1/((x-k)_k)."""
    if k >= 0:
        return _F(pochhammer(x, k))
    base = pochhammer(x + k, -k)
    if base == 0:
        raise DomainError(f"extended rising factorial ({x})_({k}) hits a zero factor")
    return _F(1, base)


def left_tail_summand(p: FormParameters, nu: int) -> Fraction:
    """Printed harmonic-number formula for the left tail summand at v = nu >= 1.

    Equals (d/dt left kernel)(nu + 2n - m): the summand of the tail part of
    the left series after re-indexing so the sum starts at 1.
    """
    n, m = checked(p, "p", kind=FormParameters).n, p.m
    checked(nu, "nu", 1)
    s1 = lambda a: harmonic(1, a)  # noqa: E731 - local shorthand
    prefactor = (
        _F((-1) ** m * factorial(n) ** 2,
           2 * factorial(m) * factorial(2 * n - m))
        * _rising_ext(1 + nu, 2 * n - m - 1)
        * pochhammer(n - m + nu, m)
        * pochhammer(3 * n - m + 1 + nu, n)
        * pochhammer(3 * n - m + 1 + nu, 2 * n - m)
        / (_F(pochhammer(2 * n - m + nu, n + 1)) ** 3
           * pochhammer(2 * n - m + nu, 2 * n - m + 1))
    )
    bracket = (
        _F(-6 * nu)
        + nu * (5 * n - 2 * m + 2 * nu) * (
            - s1(nu)
            - s1(n - m + nu)
            + 5 * s1(2 * n - m + nu)
            - 5 * s1(3 * n - m + nu)
            - s1(4 * n - 2 * m + nu)
            + s1(n + nu)
            + s1(4 * n - m + nu)
            + s1(5 * n - 2 * m + nu))
        + _F(5 * n * (m - 2 * n), m - 2 * n - nu)
        + _F(n * (3 * n - 2 * m), n + nu)
        + _F(3 * n * (m - n), n - m + nu)
    )
    return prefactor * bracket


def left_mid_summand(p: FormParameters, nu: int) -> Fraction:
    """Printed formula for the left mid-range summand, 1 <= nu <= n.

    Equals (d/dt left kernel)(nu + n - m); vanishes for nu <= m through its
    (nu - m)_m factor.
    """
    n, m = checked(p, "p", kind=FormParameters).n, p.m
    checked(nu, "nu", 1, n)
    return (
        _F((-1) ** m) * (nu + n - m + _F(n, 2))
        * _F(pochhammer(nu - m, m), factorial(m))
        * _F((-1) ** (n - nu) * factorial(nu + n - m - 1) * factorial(n - nu),
             factorial(2 * n - m))
        * _F(pochhammer(nu + 2 * n - m + 1, n), pochhammer(nu + n - m, n + 1))
        * _F(pochhammer(nu + 2 * n - m + 1, 2 * n - m),
             pochhammer(nu + n - m, 2 * n - m + 1))
        * _F(factorial(n), pochhammer(nu + n - m, n + 1)) ** 2
    )


def right_mid_summand(p: FormParameters, j: int, nu: int) -> Fraction:
    """Printed formula for the right mid-range summand, 0 <= j < nu <= n.

    Equals (d^2/dt^2 right kernel term_j)(nu) on that range.
    """
    n, m = checked(p, "p", kind=FormParameters).n, p.m
    checked(nu, "nu", checked(j, "j", 0, n - 1) + 1, n)
    s1 = lambda a: harmonic(1, a)  # noqa: E731 - local shorthand
    prefactor = _F(
        2 * (-1) ** (n + nu) * comb(n, j) ** 2 * comb(2 * n - m + j, n)
        * factorial(n - nu)                 # (1)_{n - nu}
        * factorial(n - m + nu)             # (2)_{n - m + nu - 1}
        * pochhammer(1 - j + nu, n - 1),
        nu ** 3 * (n - m + nu) ** 2
        * pochhammer(1 + nu, n) * pochhammer(1 + nu, 2 * n - m))
    core = nu * (nu - j) * (n - m + nu)
    bracket = (
        core * (_F(1, j - n - nu) - s1(nu - j) + s1(n - j + nu))
        + core * (-s1(2 * n - m + nu) + s1(nu))
        + core * (s1(nu) - s1(n + nu))
        + _F(-nu * (nu - j) + nu * (n - m + nu))
        + 2 * (j - nu) * (n - m + nu)
        + core
        + core * (_F(-1) + s1(n - m + nu))
        - core * s1(n - nu)
    )
    return prefactor * bracket


def right_low_summand(p: FormParameters, j: int, nu: int) -> Fraction:
    """Printed formula for the right low-range summand, 1 <= nu <= j <= n.

    Equals (d^2/dt^2 right kernel term_j)(nu) on that range, where both
    vanishing factors turn the second derivative into twice a cross product.
    """
    n, m = checked(p, "p", kind=FormParameters).n, p.m
    checked(nu, "nu", 1, checked(j, "j", 1, n))
    return _F(
        2 * comb(n, j) ** 2 * comb(2 * n - m + j, n)
        * (-1) ** (n + nu)
        * factorial(n + nu - m - 1) * factorial(n - nu) * factorial(n + nu - j - 1)
        * pochhammer(nu - j, j - nu),
        pochhammer(nu, n + 1) * pochhammer(nu, 2 * n - m + 1))


# ---------------------------------------------------------------------------
# summand audit
# ---------------------------------------------------------------------------


class SummandCheck(_Value):
    """One pointwise comparison of independent summand evaluation routes."""

    _fields = __slots__ = ("family", "n", "m", "j", "nu", "routes", "values")

    def __init__(self, family: str, n: int, m: int, j: int | None, nu: int,
                 routes: tuple[str, ...], values: tuple[str, ...]) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "routes", routes)
        object.__setattr__(self, "values", values)

    @property
    def agree(self) -> bool:
        return len(set(self.values)) == 1


def _highest(derivatives: tuple[list[int], int]) -> Fraction:
    """The highest derivative of a (numerators, denominator) pair, alone reduced."""
    numerators, den = derivatives
    return _F(numerators[-1], den)


def _sample(rng: random.Random, population: range, count: int) -> list[int]:
    if len(population) <= count:
        return list(population)
    return sorted(rng.sample(list(population), count))


def audit_summands(n_max: int = 10, samples: int = 2, seed: int = 0) -> list[SummandCheck]:
    """Compare summand evaluation routes on sampled in-range points.

    For every cell 0 <= m <= n <= ``n_max`` (>= 0) and every summand family,
    ``samples`` (>= 1) admissible points are drawn (deterministically from the
    int ``seed``) and each available route is evaluated exactly:

    * left-tail:  printed formula / polynomial oracle / generated rule,
    * left-mid:   printed formula / polynomial oracle,
    * right-tail: polynomial oracle / generated rule (no printed form exists
      for the full tail summand — its source is elided),
    * right-mid:  printed formula / polynomial oracle,
    * right-low:  printed formula / polynomial oracle.
    """
    checked(n_max, "n_max", 0)
    checked(samples, "samples", 1)
    rng = random.Random(checked(seed, "seed"))
    checks: list[SummandCheck] = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            p = FormParameters(n, m)

            @cache
            def kernel(j: int | None) -> tuple[Kernel, DerivativeChain, int]:
                """Built once per cell: the left kernel (j None) read at order 1,
                right j at 2, and the oracle's chain on its factors."""
                k = left_kernel(p) if j is None else _right_blocks(p, j)
                return (k, DerivativeChain(k.cofactor, k.scalar, k.factors.items()),
                        1 if j is None else 2)

            def check(family: str, j: int | None, nu: int, x: int,
                      printed: Fraction | None = None, generated: bool = False) -> None:
                """Record the summand at ``nu``, the kernel's derivative at ``x``, by route."""
                k, chain, order = kernel(j)
                routes = {} if printed is None else {"printed": printed}
                routes["oracle"] = _highest(chain.numerators(x, order))
                if generated:
                    routes["generated"] = _highest(_derivative_numerators(k, x, order))
                checks.append(SummandCheck(family, n, m, j, nu, tuple(routes),
                                           tuple(str(v) for v in routes.values())))

            for nu in _sample(rng, range(1, 2 * n + 7), samples):
                check("left-tail", None, nu, nu + 2 * n - m, left_tail_summand(p, nu), True)
            for nu in _sample(rng, range(1, n + 1), samples):
                check("left-mid", None, nu, nu + n - m, left_mid_summand(p, nu))
            for nu in _sample(rng, range(n + 1, 3 * n + 7), samples):
                check("right-tail", rng.randrange(0, n + 1), nu, nu, generated=True)
            for _ in range(min(samples, n)):
                j = rng.randrange(0, n)
                nu = rng.randint(j + 1, n)
                check("right-mid", j, nu, nu, right_mid_summand(p, j, nu))
            for _ in range(min(samples, n)):
                j = rng.randint(1, n)
                nu = rng.randint(1, j)
                check("right-low", j, nu, nu, right_low_summand(p, j, nu))
    return checks


# ---------------------------------------------------------------------------
# numeric evaluation of the defining series (float-side cross-check)
# ---------------------------------------------------------------------------


# The least cutoff A tried, the one the search starts from (the least
# A = max(_FIRST_CUTOFF, start) 2^i at or past it), the largest A tried and
# the deepest closure M.
_FIRST_CUTOFF, _START_CUTOFF, _MAX_CUTOFF, _MAX_DEPTH = 16, 128, 2 ** 16, 64
# The time of one head term over that of one closure derivative, per factor.
_TERM_WEIGHT = 32


@cache
def _depth_factor(big_d: int, big_e: int, order: int, depth: int) -> tuple[int, int]:
    """C(M) / |K| of the remainder bound C(M) T(A) / A^(E+k-1) (see
    :func:`_series_numeric`) as an unreduced pair: the part that depends on
    neither the cutoff nor the kernel's scale and coefficients, memoized."""
    k = order + 2 * depth + 2
    gap = big_e - big_d + k                         # d + k
    root = (sqrt((big_d + big_e) ** 2 + 4 * gap * k) - big_d - big_e) / (2 * gap)
    q = ceil(1000 / root)                           # alpha = a/q within root/2000 of root
    a, weight = round(root * q), bernoulli_even(k - order)
    return (2 * abs(weight.numerator) * prod(range(k - order + 1, k + 1))    # k!/(k-order)!
            * (q + a) ** big_d * q ** gap,
            weight.denominator * (q - a) ** big_e * a ** k * (gap - 1))


def _cheapest_closure(expansion: tuple, order: int, start: int,
                      target: Fraction) -> tuple[int, int, int, int]:
    """(A, M, num, den): the pair of least estimated cost whose remainder bound
    num/den (unreduced) is below ``target``, by the search of
    :func:`_series_numeric`."""
    coeffs, scale, poles = expansion
    big_d, big_e = len(coeffs) - 1, -sum(e for _, e in poles)
    per_term, per_derivative = _TERM_WEIGHT * (big_d + 1 + len(poles)), big_d + 1 + big_e

    def cost(cutoff: int, depth: int) -> int:
        return (cutoff - start) * per_term + (order + 2 * depth) ** 2 * per_derivative

    def least_depth(cutoff: int, first: int, budget: float) -> tuple[int, int, int] | None:
        """(M, num, den) for the least M >= ``first`` whose bound num/den meets
        the target at ``cutoff``, if one costs less than ``budget``."""
        last, room = _MAX_DEPTH, budget - (cutoff - start) * per_term
        if room < inf:                              # (order + 2M)^2 per_derivative < room
            last = min(last, (isqrt(max(room - 1, 0) // per_derivative) - order) // 2)
        top = 0
        for c in reversed(coeffs):                  # T(A)
            top = top * cutoff + abs(c)
        top *= abs(scale.numerator)
        power = scale.denominator * cutoff ** (big_e + order + 2 * first + 1)
        low = top * target.denominator
        for depth in range(first, last + 1):
            num, den = _depth_factor(big_d, big_e, order, depth)
            den *= power
            if low * num < den * target.numerator:
                return depth, top * num, den
            power *= cutoff * cutoff
        return None

    base = cutoff = max(_FIRST_CUTOFF, start)
    while cutoff < _START_CUTOFF and cutoff * 2 <= _MAX_CUTOFF:
        cutoff *= 2
    while cutoff > _MAX_CUTOFF or (closure := least_depth(cutoff, 1, inf)) is None:
        if cutoff * 2 > _MAX_CUTOFF:
            raise DivergenceError(f"no closure depth up to {_MAX_DEPTH} meets the target "
                                  f"{target} at a cutoff up to A = {_MAX_CUTOFF}")
        cutoff *= 2
    halved = False
    while cutoff > base and (lower := least_depth(
            cutoff // 2, closure[0], cost(cutoff, closure[0]))) is not None:
        cutoff, closure, halved = cutoff // 2, lower, True
    while not halved and cutoff * 2 <= _MAX_CUTOFF and (higher := least_depth(
            cutoff * 2, 1, cost(cutoff, closure[0]))) is not None:
        cutoff, closure = cutoff * 2, higher
    return (cutoff, *closure)


def _series_numeric(kernel: Kernel, order: int, start: int,
                    target: Fraction) -> tuple[Fraction, Fraction]:
    """(value, error bound) for sum_{v >= start} h(v), h = g^(order), for
    g = K N(t) / prod (t + s)^e, ``kernel`` multiplied out (:meth:`Kernel.expansion`),
    every pole shift s >= 0 (DomainError otherwise, before any search),
    deg g <= order - 2 (DivergenceError).

    The terms below A are summed exactly and the tail is closed at depth M by
    -g^(order-1)(A) + h(A)/2 - sum_{k<=M} B_2k/(2k)! h^(2k-1)(A), whose remainder is
    at most 2 |B_(2M+2)|/(2M+2)! int_A^oo |g^(k)|, k = order + 2M + 2 (DLMF 2.10.1).
    Let D = deg N, E = sum e, d = E - D, S = sum_i |N_i| A^(i-D), 0 < alpha < 1.
    For x >= A the circle |z - x| = alpha x holds no pole: on it |z + s| >=
    (1 - alpha) x and |N(z)| <= ((1 + alpha) x)^D S, so Cauchy's estimate gives
    |g^(k)(x)| <= k! |K| S (1 + alpha)^D / ((1 - alpha)^E alpha^k x^(d+k)), and the
    integral is that constant times A^(1-d-k) / (d+k-1).  alpha, rationalised, is
    the root in (0, 1) of alpha^2 (d + k) + alpha (D + E) - k, which minimises
    the alpha-dependent factor.

    So the bound is C(M) T(A) / A^(E+k-1), T(A) = sum_i |N_i| A^i, and C(M)/|K|
    depends on D, E, order and M alone (:func:`_depth_factor`).  Among the pairs
    whose bound is below ``target`` (compared in integers: no float decides
    whether a bound holds), A = max(``_FIRST_CUTOFF``, start) 2^i up to
    ``_MAX_CUTOFF`` and M <= ``_MAX_DEPTH``, :func:`_cheapest_closure` seeks
    the least estimated cost (A - start) (D + 1 + F) w + (order + 2M)^2 (D + 1 +
    E), F the number of factors: a head term reads D + 1 coefficients and F
    powers, and a closure derivative is a pass over order + 2M Taylor
    coefficients per factor.  w = ``_TERM_WEIGHT`` = 32 is the time of a head
    term over a closure derivative, per factor, at (4,1) and 30 decimals.  It is
    nearer 10 at (60,0) and 104 decimals, whose closure integers are larger,
    but the time is flat near its least: on every cell measured the chosen A
    ran within a quarter of the fastest A.  At each A it takes the least M,
    which only grows as A halves.  From the least closing A >= ``_START_CUTOFF``,
    halve while the estimate falls, each depth scan going on where the last
    stopped; if it never halved, double while it falls (after a halving, 2A
    costs more at its least M, so doubling cannot win); no depth is read
    that cannot beat the estimate in hand.  No M closing at any A up to
    ``_MAX_CUTOFF`` is a DivergenceError naming the limit and the target, so
    no input runs until memory runs out (every cell with n <= 100 closes by
    A = 16,384 at 160 decimals).  The reported bound is the one the search compared with
    ``target``, the unreduced pair at the chosen (A, M).  The closure reads
    g^(order-1) .. g^(order+2M-1) at A (:func:`_closure`), and the exact sum
    builds the dense chain up to ``order`` only.
    """
    if kernel.degree > order - 2:
        raise DivergenceError(f"kernel of degree {kernel.degree} has no closure at "
                              f"derivative order {order} (needs <= {order - 2})")
    expansion = kernel.expansion()
    if any(shift < 0 for shift, _ in expansion[2]):
        raise DomainError("the remainder bound needs every pole at t <= 0")
    chain = DerivativeChain(*expansion)
    cutoff, depth, num, den = _cheapest_closure(expansion, order, start, target)
    return chain.sum(order, start, cutoff) + _closure(chain, cutoff, order, depth), _F(num, den)


def _numeric_side(kernel: Callable[[FormParameters], Kernel], p: FormParameters,
                  order: int, start: int, weight: Fraction, digits: int) -> FixedPointNumber:
    """``weight`` * sum_{v >= start} (d/dt)^order kernel(p)(v) to ``digits`` >= 1
    decimals (RangeError before any kernel is built), closed 15 decimals past."""
    checked(digits, "digits", 1)
    value, bound = _series_numeric(kernel(p), order, start, _F(1, 10 ** (digits + 15)))
    return FixedPointNumber.from_fraction(weight * value, digits,
                                          inherent_error=abs(weight) * bound)


def left_form_numeric(p: FormParameters, digits: int = 30) -> FixedPointNumber:
    """Numeric -1/3 sum_{v >= n-m+1} (d/dt left kernel)(v): the defining series."""
    start = checked(p, "p", kind=FormParameters).n - p.m + 1
    return _numeric_side(left_kernel, p, 1, start, _F(-1, 3), digits)


def right_form_numeric(p: FormParameters, digits: int = 30) -> FixedPointNumber:
    """Numeric 1/6 sum_{v >= 1} (d^2/dt^2 right kernel)(v): the defining series.

    Euler–Maclaurin is linear, so one closure and one remainder bound on
    the summed kernel P B (:func:`right_kernel`) cover the whole side.
    """
    return _numeric_side(right_kernel, p, 2, 1, _F(1, 6), digits)
