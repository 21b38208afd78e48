"""The two families of linear forms in {1, zeta(4)} and their summands.

For integer parameters n >= m >= 0 the package studies two rational kernels,

* the *left* kernel, a degree-gap-3 product of shifted rising factorials with
  an extra (t + n/2) factor, and
* the *right* kernel, a sum over j = 0..n of degree-gap-2 products weighted
  by squared binomials, which share their blocks B: one kernel P(t) B(t),

and the exact values

    left_form  = -1/3 * sum_{v >= n-m+1} (d/dt left kernel)(v),
    right_form = +1/6 * sum_{v >= 1}   (d^2/dt^2 right kernel)(v),

each an exact linear form in zeta values (in fact in {1, zeta(4)} alone —
the zeta(2), zeta(3), zeta(5) coordinates cancel).  The central verified
claim is left_form == right_form componentwise on the whole parameter grid.

Each kernel is written down once, as a :class:`Kernel`: a scalar times
rising-factorial blocks and loose linear factors (times the integer
polynomial P on the right), returned by :func:`left_kernel` and
:func:`right_kernel`.  Its pole orders, its integer expansion (the input of
a :class:`~apery4.polyrat.DerivativeChain`), the principal parts and the
generated route all derive from it, the last two through one local expansion.
Each form sums the derivative tails of its kernel's principal parts
termwise (see :mod:`apery4.zeta_forms`).  The parts are read off the blocks
at each pole without expanding anything (:class:`_LocalExpansion`), and an
always-on certificate proves them (:func:`_certify`).

The module also carries the three independent evaluation routes for the
*summands* (the term values of the split series):

1. printed closed formulas in terms of harmonic numbers
   (:func:`left_tail_summand`, :func:`left_mid_summand`,
   :func:`right_mid_summand`, :func:`right_low_summand`),
2. a structure-blind polynomial oracle (product and quotient rule on the
   kernel's integer expansion, on Taylor series at the point, one
   :class:`polyrat.DerivativeChain` per kernel), and
3. a generated route applying the rising-factorial derivative rule (power
   sums over each block as harmonic differences) to every factor in
   logarithmic form: the local expansion that yields the principal parts,
   read at a point where no factor vanishes (:func:`_derivatives_at`).

:func:`audit_summands` samples parameter cells and compares the routes
pointwise; any disagreement is reported, none is expected.

Finally, :func:`left_form_numeric` / :func:`right_form_numeric` re-sum the
defining series on one derivative chain per side (exact integer terms to a
short cutoff, then one Euler–Maclaurin closure whose remainder is bounded
from the kernel's integer expansion by Cauchy's estimate), a cross-check
free of partial fractions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, floor, lcm, log, prod, sqrt

from .errors import (DivergenceError, DomainError, RangeError,
                     ReconstructionError)
from .exact_arith import binomial, factorial, harmonic, pochhammer
from .polyrat import (DerivativeChain, PartialFractions, PoleExpansion,
                      _linear_product, _merged_shifts, _mul_coeffs, _times_linear)
from .zeta_forms import (FixedPointNumber, ZetaLinearForm, bernoulli_even,
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
    "left_mid_sum",
    "left_split_check",
    "right_mid_summand",
    "right_low_summand",
    "right_finite_sum",
    "right_split_check",
    "SummandCheck",
    "audit_summands",
    "left_form_numeric",
    "right_form_numeric",
]

_F = Fraction


@dataclass(frozen=True)
class FormParameters:
    """A grid cell (n, m) with 0 <= m <= n."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.m <= self.n:
            raise RangeError(f"need 0 <= m <= n, got (n, m) = ({self.n}, {self.m})")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """scalar * prod (t+x)_k^e over blocks * prod (t+s)^e over loose factors,
    times an integer cofactor polynomial (ascending; 1 but on the right).

    The one written form of a kernel (see :func:`left_kernel`,
    :func:`right_kernel`).  It keeps the rising-factorial block structure,
    which the local expansions (:class:`_LocalExpansion`) read, at the poles
    for the principal parts and at regular points for the generated route;
    :meth:`pole_orders` scans the blocks for the poles; :meth:`expansion`
    multiplies it out in integers, the input of a
    :class:`~apery4.polyrat.DerivativeChain`; :meth:`values` steps it in
    integers.
    """

    scalar: Fraction
    blocks: tuple[tuple[int, int, int], ...]        # (x, k, e) with x integer
    linears: tuple[tuple[Fraction, int], ...]       # (s, e), s possibly n/2
    cofactor: tuple[int, ...] = (1,)

    @property
    def degree(self) -> int:
        """deg(numerator) - deg(denominator), before any cancellation."""
        return (sum(k * e for _, k, e in self.blocks) + sum(e for _, e in self.linears)
                + len(self.cofactor) - 1)

    def linear_factors(self) -> list[tuple[Fraction | int, int]]:
        """Every (shift, exponent) of the kernel, the blocks flattened to
        (t + x + i)^e, unmerged; the cofactor is left out."""
        return [(x + i, e) for x, k, e in self.blocks for i in range(k)] + list(self.linears)

    def pole_orders(self) -> dict[int, int]:
        """{shift p: order} of the poles t = -p, from the merged block exponents."""
        candidates: set[int] = set()
        for x, k, e in self.blocks:
            if e < 0:
                candidates.update(range(x, x + k))
        candidates.update(s for s, e in self.linears if e < 0)
        orders: dict[int, int] = {}
        for q in candidates:
            exponent = (sum(e for x, k, e in self.blocks if x <= q < x + k)
                        + sum(e for s, e in self.linears if s == q))
            if exponent < 0:
                orders[q] = -exponent
        return orders

    def expansion(self) -> tuple[list[int], Fraction, list[tuple[Fraction | int, int]]]:
        """(N, K, [(s, e > 0)]): the merged kernel as K N(t) / prod (t + s)^e."""
        merged = _merged_shifts(self.linear_factors())
        coeffs, lead = _linear_product((s, e) for s, e in merged.items() if e > 0)
        return (_mul_coeffs(coeffs, self.cofactor), self.scalar / lead,
                [(s, -e) for s, e in merged.items() if e < 0])

    def first_positive_point(self) -> int:
        """The least integer t at which every factor is positive."""
        return max([1 - x for x, k, _ in self.blocks if k > 0]
                   + [floor(-s) + 1 for s, _ in self.linears], default=1)

    def values(self, start: int, count: int) -> list[tuple[int, int]]:
        """g(start), ..., g(start + count - 1) as unreduced integer pairs,
        each run prod_{i<k} (d t + c + d i)^e stepped by its new top over its
        old bottom, an exact division (t + q/d = (d t + q)/d, d^e in the
        scalar).  Every factor must be positive at ``start``."""
        runs = ([(1, x, k, e) for x, k, e in self.blocks if k]     # (d, c, d k, e)
                + [(s.denominator, s.numerator, s.denominator, e) for s, e in self.linears])
        scalar = self.scalar / prod(_F(s.denominator) ** e for s, e in self.linears)
        num, den = scalar.numerator, scalar.denominator
        sides = ([(d, c, width, e) for d, c, width, e in runs if e > 0],
                 [(d, c, width, -e) for d, c, width, e in runs if e < 0])
        products = [prod(prod(range(d * start + c, d * start + c + width, d)) ** e
                         for d, c, width, e in side) for side in sides]     # [N, Q]
        out = []
        for t in range(start, start + count):
            cofactor = 0
            for c in reversed(self.cofactor):
                cofactor = cofactor * t + c
            out.append((num * cofactor * products[0], den * products[1]))
            for i, side in enumerate(sides):
                top = bottom = 1
                for d, c, width, e in side:
                    base = d * t + c
                    top *= (base + width) ** e
                    bottom *= base ** e
                products[i] = products[i] * top // bottom
        return out


def left_kernel(p: FormParameters) -> Kernel:
    """The left kernel (degree gap 3):

    (-1)^m n!^2 / (m! (2n-m)!) * (t + n/2)
      * (t-n)_m (t-2n+m)_{2n-m} (t+n+1)_n (t+n+1)_{2n-m}
      / ((t)_{n+1}^3 (t)_{2n-m+1})

    After merging, its poles sit at t = -n..0 with order 4 (order 3 at
    t = -n/2 for even n, where the linear factor cancels one).
    """
    n, m = p.n, p.m
    scalar = _F((-1) ** m * factorial(n) ** 2, factorial(m) * factorial(2 * n - m))
    return Kernel(
        scalar,
        ((-n, m, 1), (m - 2 * n, 2 * n - m, 1), (n + 1, n, 1),
         (n + 1, 2 * n - m, 1), (0, n + 1, -3), (0, 2 * n - m + 1, -1)),
        ((_F(n, 2), 1),),
    )


def _right_spec(p: FormParameters) -> Kernel:
    """The right kernel's shared blocks B = (t-n)_{2n-m} / ((t)_{n+1} (t)_{2n-m+1}):
    its j-th term, 0 <= j <= n, is C_j (t-j)_n B (degree gap 2), C_j below."""
    n, m = p.n, p.m
    return Kernel(_F(1), ((-n, 2 * n - m, 1), (0, n + 1, -1), (0, 2 * n - m + 1, -1)), ())


def _right_weight(p: FormParameters, j: int) -> int:
    """The weight C_j = C(n,j)^2 C(2n-m+j, n) of the right kernel's j-th term."""
    return binomial(p.n, j) ** 2 * binomial(2 * p.n - p.m + j, p.n)


def _right_blocks(p: FormParameters, j: int) -> Kernel:
    """The j-th term of the right kernel, C_j (t-j)_n B (see :func:`_right_spec`)."""
    if not 0 <= j <= p.n:
        raise RangeError(f"need 0 <= j <= n, got j = {j} at n = {p.n}")
    shared = _right_spec(p)
    return replace(shared, scalar=_F(_right_weight(p, j)), blocks=((-j, p.n, 1),) + shared.blocks)


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
    for j in range(p.n + 1):                        # falling = (t-j)_j
        weight = _right_weight(p, j)
        cofactor = [c + weight * f for c, f in zip(_times_linear(cofactor, p.n - j, 1), falling)]
        falling = _times_linear(falling, -j - 1, 1)
    return replace(_right_spec(p), cofactor=tuple(cofactor))


# ---------------------------------------------------------------------------
# principal parts from the block structure, with a point-evaluation certificate
# ---------------------------------------------------------------------------


class _LocalExpansion:
    """Local expansions of block products at integer points, all in integers:
    the principal parts at a pole (:func:`_principal_parts`), and the Taylor
    coefficients where no factor vanishes (:func:`_derivatives_at`).

    At t = -p, expanded as a pole of order E, put u = t + p.  Each block
    factor (t + c) with a = c - p != 0 is a (1 + u/a), and a loose factor
    (t + s) with s = q/d is (b/d)(1 + d u/b) for b = q - d p != 0; the
    factors with a = 0 or b = 0 are the powers of u.  So near u = 0 a kernel
    times u^E is C exp(sum_r c_r u^r), where C is the scalar times the
    product of the a^e (signed factorial quotients over each block) and
    r c_r = (-1)^(r+1) P_r / L^r with P_r = L^r sum e a^-r an integer:
    L = lcm(1..top) for a ``top`` covering every |a| and |b| at the points
    the engine is built for, so the power sums over a block are differences
    of the integer harmonic table h[r][i] = L^r S_r(i).  The series
    g = exp(sum c_r u^r) has g_k = G_k / (k! L^k) with integer G_0 = 1 and
    G_k = sum_{i=1..k} (-1)^(i+1) P_i G_(k-i) (k-1)!/(k-i)!,
    and the coefficient of u^-j is A_j = C g_(E-j), or sum_i Q_i A_(j+i)
    with a cofactor Q = sum_i Q_i u^i (Taylor coefficients by synthetic
    division).  At a pole of order E these are the principal parts; where
    no factor vanishes, A_j is the kernel's Taylor coefficient of u^(E-j).
    Block products and the recursion's ratios are read from tables.
    """

    def __init__(self, kernel: Kernel, shifts: list[int], depth: int) -> None:
        """Tables for expansions of ``kernel`` at t = -shift, for each of
        ``shifts``, up to ``depth`` terms; :meth:`part` reads that kernel."""
        self.kernel, self.shifts = kernel, set(shifts)
        ends = [end for x, k, _ in kernel.blocks if k > 0 for end in (x, x + k - 1)]
        top = max([abs(end - shift) for shift in shifts for end in ends]
                  + [abs(s.numerator - s.denominator * shift)
                     for shift in shifts for s, _ in kernel.linears], default=0)
        self.scale = lcm(*range(1, top + 1))
        self.table: list[list[int]] = [[]]
        for r in range(1, depth):
            unit = self.scale ** r
            row = [0]
            for a in range(1, top + 1):
                row.append(row[-1] + unit // a ** r)
            self.table.append(row)
        self.factorials = [1]
        for i in range(1, max(top, depth) + 1):
            self.factorials.append(self.factorials[-1] * i)
        # ratios[k][i-1] = (-1)^(i+1) (k-1)!/(k-i)!, the weights of G_k's recursion
        self.ratios = [[(-1) ** (i + 1) * self.factorials[k - 1] // self.factorials[k - i]
                        for i in range(1, k + 1)] for k in range(depth)]

    def part(self, shift: int, order: int) -> tuple[list[int], int]:
        """(numerators of A_1..A_order, common denominator) of the kernel at
        t = -shift, a shift the tables cover (ValueError otherwise), order <= depth.

        The denominator is the one of C times (order-1)! L^(order-1).
        """
        if shift not in self.shifts:
            raise ValueError(f"no tables for shift {shift}, only {sorted(self.shifts)}")
        kernel, scale, table, factorials = self.kernel, self.scale, self.table, self.factorials
        num, den = kernel.scalar.numerator, kernel.scalar.denominator
        sums = [0] * order                  # sums[r] = P_r
        for x, k, e in kernel.blocks:
            low, high = x - shift, x - shift + k - 1
            # the nonzero a in [low, high] as runs of one sign, |a| = first..last
            for sign, first, last in ((1, max(low, 1), high), (-1, max(-high, 1), -low)):
                if first > last:
                    continue
                product = sign ** (last - first + 1) * factorials[last] // factorials[first - 1]
                if e > 0:
                    num *= product ** e
                else:
                    den *= product ** -e
                for r in range(1, order):
                    sums[r] += e * sign ** r * (table[r][last] - table[r][first - 1])
        for s, e in kernel.linears:
            d = s.denominator
            b = s.numerator - d * shift
            if b == 0:
                continue
            if e > 0:
                num *= b ** e
                den *= d ** e
            else:
                num *= d ** -e
                den *= b ** -e
            for r in range(1, order):
                sums[r] += e * d ** r * (scale // b) ** r
        series = [1]
        for k in range(1, order):
            series.append(sum(ratio * sums[i] * series[k - i]
                              for i, ratio in enumerate(self.ratios[k], 1)))
        # A_j = num G_(E-j) / (den (E-j)! L^(E-j)), over den (E-1)! L^(E-1)
        parts = [num * series[order - j] * (factorials[order - 1] // factorials[order - j])
                 * scale ** (j - 1) for j in range(1, order + 1)]
        taylor, coeffs = [], list(kernel.cofactor)
        for _ in range(order):              # divide by (t + shift), keep the remainder
            for i in range(len(coeffs) - 2, -1, -1):
                coeffs[i] -= shift * coeffs[i + 1]
            taylor.append(coeffs.pop(0) if coeffs else 0)
        numerators = [sum(q * a for q, a in zip(taylor, parts[j:])) for j in range(order)]
        return numerators, den * factorials[order - 1] * scale ** (order - 1)


def _certify(kernel: Kernel, expansion: PartialFractions, orders: dict[int, int],
             where: str) -> None:
    """Prove that ``expansion`` is the partial-fraction form of ``kernel``.

    The poles and ``orders`` found by scanning the block ranges
    (:meth:`Kernel.pole_orders`) must match the negative exponents left after
    merging the flattened factors (:meth:`Kernel.linear_factors`)
    shift by shift: a second algorithm over the same spec, not an
    independent spec.  The kernel must vanish at infinity, and the
    expansion must have no term above its pole's order.
    With D = prod (t+p)^E_p over those orders, the kernel f and the
    expansion F both equal (polynomial of degree < deg D) / D, so
    f - F = R/D with deg R < deg D, and f == F at deg D distinct points
    proves R = 0.  The points are consecutive integers where every factor
    is positive.  There f = num/den (:meth:`Kernel.values`), and one
    pass over every term accumulates parts / prefix = N F(x), N the
    expansion's denominator: parts = parts (x+p)^E + H(x) prefix and
    prefix *= (x+p)^E, H the Horner value of the term's numerators padded
    to its pole's order E.
    Raises ReconstructionError naming ``where`` on any mismatch.
    """
    poles = {s: -e for s, e in _merged_shifts(kernel.linear_factors()).items() if e < 0}
    if orders != poles:
        raise ReconstructionError(
            f"{where}: block poles {sorted(orders.items())} differ from the "
            f"merged factors' poles {sorted(poles.items())}")
    if kernel.degree >= 0:
        raise ReconstructionError(f"{where}: kernel does not vanish at infinity")
    for term in expansion.terms:
        if term.order > orders.get(term.shift, 0):
            raise ReconstructionError(
                f"{where}: term of order {term.order} at shift {term.shift} "
                "exceeds the kernel's pole order there")

    scale = expansion.denominator
    terms = []
    for term in expansion.terms:
        order = orders.get(term.shift, 0)
        terms.append((term.shift, order, term.numerators + (0,) * (order - term.order)))
    start = kernel.first_positive_point()
    count = sum(orders.values())
    for x, (num, den) in zip(range(start, start + count), kernel.values(start, count)):
        parts, prefix = 0, 1
        for shift, order, numerators in terms:
            base = x + shift
            horner = 0
            for c in numerators:
                horner = horner * base + c
            power = base ** order
            parts = parts * power + horner * prefix
            prefix *= power
        if num * scale * prefix != parts * den:
            raise ReconstructionError(
                f"{where}: principal parts disagree with the kernel at t = {x}")


def _principal_parts(kernel: Kernel, where: str) -> PartialFractions:
    """Certified partial fractions of ``kernel``: one local expansion
    (:class:`_LocalExpansion`) per pole, in integers, with nothing expanded
    into a dense polynomial, rescaled to one denominator and proved by
    :func:`_certify`.  The pole shifts stay ints.
    """
    orders = kernel.pole_orders()
    local = _LocalExpansion(kernel, list(orders), max(orders.values(), default=1))
    parts = [(shift, *local.part(shift, orders[shift])) for shift in sorted(orders)]
    common = lcm(*(den for _, _, den in parts))
    expansion = PartialFractions(tuple(
        PoleExpansion(shift, tuple(c * (common // den) for c in numerators))
        for shift, numerators, den in parts), common)
    _certify(kernel, expansion, orders, where)
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
    return _F(-1, 3) * derivative_tail_sum(_left_expansion(p), 1, p.n - p.m + 1)


def right_form(p: FormParameters) -> ZetaLinearForm:
    """Exact value of the right form: 1/6 sum_{v >= 1} (d^2/dt^2 P B)(v), one
    expansion, certificate and tail sum on the summed kernel.
    """
    return _F(1, 6) * derivative_tail_sum(_right_expansion(p), 2, 1)


def verify_cell(n: int, m: int) -> dict:
    """One grid cell as a plain record (picklable, for workers and reports)."""
    started = time.perf_counter()
    p = FormParameters(n, m)
    lhs = left_form(p)
    rhs = right_form(p)
    return {
        "n": n,
        "m": m,
        "left": lhs.to_mapping(),
        "right": rhs.to_mapping(),
        "identityPass": lhs == rhs,
        "pureWeight4": lhs.is_pure_weight4() and rhs.is_pure_weight4(),
        "elapsedMs": round((time.perf_counter() - started) * 1000.0, 3),
    }


# ---------------------------------------------------------------------------
# the generated route: the rising-factorial derivative rule at a point
# ---------------------------------------------------------------------------


def _derivatives_at(kernel: Kernel, point: int, order: int) -> list[Fraction]:
    """[g, g', ..., g^(order)](point) of ``kernel``, cofactor included.

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
    return [_F(local.factorials[k] * numerators[order - k], den) for k in range(order + 1)]


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
    n, m = p.n, p.m
    if nu < 1:
        raise RangeError(f"left tail summand needs nu >= 1, got {nu}")
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
    n, m = p.n, p.m
    if not 1 <= nu <= n:
        raise RangeError(f"left mid summand needs 1 <= nu <= n, got nu = {nu}")
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


def left_mid_sum(p: FormParameters) -> Fraction:
    """Exact finite mid-range part of the left series: sum_{nu=m+1}^{n}."""
    return sum((left_mid_summand(p, nu) for nu in range(p.m + 1, p.n + 1)),
               start=_F(0))


def left_split_check(p: FormParameters) -> bool:
    """Tail from v = 2n-m+1 plus printed mid part == the whole left series,
    both summed from one certified expansion."""
    expansion = _left_expansion(p)
    tail = derivative_tail_sum(expansion, 1, 2 * p.n - p.m + 1)
    whole = derivative_tail_sum(expansion, 1, p.n - p.m + 1)
    return tail + ZetaLinearForm.from_constant(left_mid_sum(p)) == whole


def right_mid_summand(p: FormParameters, j: int, nu: int) -> Fraction:
    """Printed formula for the right mid-range summand, 0 <= j < nu <= n.

    Equals (d^2/dt^2 right kernel term_j)(nu) on that range.
    """
    n, m = p.n, p.m
    if not 0 <= j <= n - 1:
        raise RangeError(f"right mid summand needs 0 <= j <= n-1, got j = {j}")
    if not j < nu <= n:
        raise RangeError(f"right mid summand needs j < nu <= n, got nu = {nu}")
    s1 = lambda a: harmonic(1, a)  # noqa: E731 - local shorthand
    prefactor = _F(
        2 * (-1) ** (n + nu) * binomial(n, j) ** 2 * binomial(2 * n - m + j, n)
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
    n, m = p.n, p.m
    if not 1 <= j <= n:
        raise RangeError(f"right low summand needs 1 <= j <= n, got j = {j}")
    if not 1 <= nu <= j:
        raise RangeError(f"right low summand needs 1 <= nu <= j, got nu = {nu}")
    return _F(
        2 * binomial(n, j) ** 2 * binomial(2 * n - m + j, n)
        * (-1) ** (n + nu)
        * factorial(n + nu - m - 1) * factorial(n - nu) * factorial(n + nu - j - 1)
        * pochhammer(nu - j, j - nu),
        pochhammer(nu, n + 1) * pochhammer(nu, 2 * n - m + 1))


def right_finite_sum(p: FormParameters) -> Fraction:
    """Exact finite part of the right series: all (j, nu) with 1 <= nu <= n."""
    n = p.n
    total = _F(0)
    for j in range(0, n):
        for nu in range(j + 1, n + 1):
            total += right_mid_summand(p, j, nu)
    for j in range(1, n + 1):
        for nu in range(1, j + 1):
            total += right_low_summand(p, j, nu)
    return total


def right_split_check(p: FormParameters) -> bool:
    """Tail from v = n+1 plus printed finite part == the whole right series,
    both summed from one certified expansion of P B, the sum of the j-terms."""
    expansion = _right_expansion(p)
    tail = derivative_tail_sum(expansion, 2, p.n + 1)
    whole = derivative_tail_sum(expansion, 2, 1)
    return tail + ZetaLinearForm.from_constant(right_finite_sum(p)) == whole


# ---------------------------------------------------------------------------
# summand audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummandCheck:
    """One pointwise comparison of independent summand evaluation routes."""

    family: str
    n: int
    m: int
    j: int | None
    nu: int
    routes: tuple[str, ...]
    values: tuple[str, ...]

    @property
    def agree(self) -> bool:
        return len(set(self.values)) == 1


def _sample(rng: random.Random, population: range, count: int) -> list[int]:
    if len(population) <= count:
        return list(population)
    return sorted(rng.sample(list(population), count))


def audit_summands(n_max: int = 10, samples: int = 2, seed: int = 0) -> list[SummandCheck]:
    """Compare summand evaluation routes on sampled in-range points.

    For every cell 0 <= m <= n <= n_max and every summand family, ``samples``
    admissible points are drawn (deterministically from ``seed``) and each
    available route is evaluated exactly:

    * left-tail:  printed formula / polynomial oracle / generated rule,
    * left-mid:   printed formula / polynomial oracle,
    * right-tail: polynomial oracle / generated rule (no printed form exists
      for the full tail summand — its source is elided),
    * right-mid:  printed formula / polynomial oracle,
    * right-low:  printed formula / polynomial oracle.
    """
    rng = random.Random(seed)
    checks: list[SummandCheck] = []

    def record(family: str, p: FormParameters, j: int | None, nu: int,
               routes: dict[str, Fraction]) -> None:
        checks.append(SummandCheck(
            family, p.n, p.m, j, nu,
            tuple(routes.keys()), tuple(str(v) for v in routes.values())))

    for n in range(n_max + 1):
        for m in range(n + 1):
            p = FormParameters(n, m)
            shift = 2 * n - m
            left = left_kernel(p)
            # one chain per kernel: the left one (key None) read at order 1, right j at 2
            chains = {None: DerivativeChain(*left.expansion())}

            def oracle(j: int | None, x: int) -> Fraction:
                if j not in chains:
                    chains[j] = DerivativeChain(*_right_blocks(p, j).expansion())
                return chains[j].values(x, 1 if j is None else 2)[-1]

            for nu in _sample(rng, range(1, 2 * n + 7), samples):
                record("left-tail", p, None, nu, {
                    "printed": left_tail_summand(p, nu),
                    "oracle": oracle(None, nu + shift),
                    "generated": _derivatives_at(left, nu + shift, 1)[1],
                })
            for nu in _sample(rng, range(1, n + 1), samples):
                record("left-mid", p, None, nu, {
                    "printed": left_mid_summand(p, nu),
                    "oracle": oracle(None, nu + n - m),
                })
            for nu in _sample(rng, range(n + 1, 3 * n + 7), samples):
                j = rng.randrange(0, n + 1)
                record("right-tail", p, j, nu, {
                    "oracle": oracle(j, nu),
                    "generated": _derivatives_at(_right_blocks(p, j), nu, 2)[2],
                })
            if n >= 1:
                for _ in range(min(samples, n)):
                    j = rng.randrange(0, n)
                    nu = rng.randint(j + 1, n)
                    record("right-mid", p, j, nu, {
                        "printed": right_mid_summand(p, j, nu),
                        "oracle": oracle(j, nu),
                    })
                for _ in range(min(samples, n)):
                    j = rng.randint(1, n)
                    nu = rng.randint(1, j)
                    record("right-low", p, j, nu, {
                        "printed": right_low_summand(p, j, nu),
                        "oracle": oracle(j, nu),
                    })
    return checks


# ---------------------------------------------------------------------------
# numeric evaluation of the defining series (float-side cross-check)
# ---------------------------------------------------------------------------


# The first cutoff A, and the deepest closure tried at each A before it doubles.
_FIRST_CUTOFF, _MAX_DEPTH = 128, 32


def _log(x: Fraction | int) -> float:
    """Natural log of a positive rational of any size."""
    return log(x.numerator) - log(x.denominator)


def _remainder_factors(expansion: tuple, order: int, depth: int,
                       cutoff: int) -> list[tuple[Fraction | int, int]]:
    """(base, exponent) pairs whose product bounds the remainder after ``depth``
    closure terms at A = ``cutoff`` (see :func:`_series_numeric`)."""
    coeffs, scale, den_factors = expansion
    if any(shift < 0 for shift, _ in den_factors):
        raise DomainError("the remainder bound needs every pole at t <= 0")
    big_d, big_e, k = len(coeffs) - 1, sum(e for _, e in den_factors), order + 2 * depth + 2
    gap = big_e - big_d + k                         # d + k
    root = (sqrt((big_d + big_e) ** 2 + 4 * gap * k) - big_d - big_e) / (2 * gap)
    q = ceil(1000 / root)                           # alpha within root/2000 of root, not 0
    alpha = _F(round(root * q), q)
    top = sum(abs(c) * cutoff ** i for i, c in enumerate(coeffs))      # S A^D
    return [(2 * abs(bernoulli_even(k - order)) / factorial(k - order), 1), (factorial(k), 1),
            (abs(scale) * _F(top, cutoff ** big_d), 1), (1 + alpha, big_d), (1 - alpha, -big_e),
            (alpha, -k), (cutoff, 1 - gap), (gap - 1, -1)]


def _series_numeric(kernel: Kernel, order: int, start: int,
                    target: Fraction) -> tuple[Fraction, Fraction]:
    """(value, error bound) for sum_{v >= start} h(v), h = g^(order), for
    g = K N(t) / prod (t + s)^e, ``kernel`` multiplied out (:meth:`Kernel.expansion`),
    every s >= 0 (DomainError otherwise), deg g <= order - 2 (DivergenceError).

    The terms below A are summed exactly and the tail is closed at depth M by
    -g^(order-1)(A) + h(A)/2 - sum_{k<=M} B_2k/(2k)! h^(2k-1)(A), whose remainder is
    at most 2 |B_(2M+2)|/(2M+2)! int_A^oo |g^(k)|, k = order + 2M + 2 (DLMF 2.10.1).
    Let D = deg N, E = sum e, d = E - D, S = sum_i |N_i| A^(i-D), 0 < alpha < 1.
    For x >= A the circle |z - x| = alpha x holds no pole: on it |z + s| >=
    (1 - alpha) x and |N(z)| <= ((1 + alpha) x)^D S, so Cauchy's estimate gives
    |g^(k)(x)| <= k! |K| S (1 + alpha)^D / ((1 - alpha)^E alpha^k x^(d+k)), and the
    integral is that constant times A^(1-d-k) / (d+k-1).  alpha, rationalised, is
    the root in (0, 1) of alpha^2 (d + k) + alpha (D + E) - k, which minimises
    the alpha-dependent factor.  A doubles from ``_FIRST_CUTOFF`` until some
    M <= ``_MAX_DEPTH`` takes the bound below ``target`` in floats (it ends, as
    d + k - 1 >= 2M + 3 and S falls in A); the least M's bound is then computed
    in Fractions, one ``values`` call reads g^(order-1) .. g^(order+2M-1) at A,
    and the exact sum builds the dense chain up to ``order`` only.
    """
    if kernel.degree > order - 2:
        raise DivergenceError(f"kernel of degree {kernel.degree} has no closure at "
                              f"derivative order {order} (needs <= {order - 2})")
    expansion, cutoff, log_target = kernel.expansion(), max(_FIRST_CUTOFF, start), _log(target)
    while not (depth := next((m for m in range(1, _MAX_DEPTH + 1) if sum(
            e * _log(base) for base, e in _remainder_factors(expansion, order, m, cutoff))
            < log_target), 0)):
        cutoff *= 2
    bound = prod(_F(base) ** e for base, e in _remainder_factors(expansion, order, depth, cutoff))
    chain = DerivativeChain(*expansion)
    high = chain.values(cutoff, order + 2 * depth - 1)
    closure = -high[order - 1] + high[order] / 2 - sum(
        bernoulli_even(2 * k) / factorial(2 * k) * high[order + 2 * k - 1]
        for k in range(1, depth + 1))
    return chain.sum(order, start, cutoff) + closure, bound


def left_form_numeric(p: FormParameters, digits: int = 30) -> FixedPointNumber:
    """Numeric -1/3 sum_{v >= n-m+1} (d/dt left kernel)(v): the defining series."""
    value, bound = _series_numeric(left_kernel(p), 1, p.n - p.m + 1,
                                   _F(1, 10 ** (digits + 15)))
    return FixedPointNumber.from_fraction(-value / 3, digits, inherent_error=bound / 3)


def right_form_numeric(p: FormParameters, digits: int = 30) -> FixedPointNumber:
    """Numeric 1/6 sum_{v >= 1} (d^2/dt^2 right kernel)(v): the defining series.

    Euler–Maclaurin is linear, so one closure and one remainder bound on
    the summed kernel P B (:func:`right_kernel`) cover the whole side.
    """
    value, bound = _series_numeric(right_kernel(p), 2, 1, _F(1, 10 ** (digits + 15)))
    return FixedPointNumber.from_fraction(value / 6, digits, inherent_error=bound / 6)
