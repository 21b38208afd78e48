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

Each kernel is written down once, as a scalar times rising-factorial blocks
and loose linear factors (times the integer polynomial P on the right); the
merged :class:`~apery4.polyrat.LinearFactorProduct`, the derivative chain
(:meth:`_BlockProduct.chain`), the principal parts and the generated route
all derive from that one spec, the last two through one local expansion.
Each form sums the derivative tails of its kernel's principal parts
termwise (see :mod:`apery4.zeta_forms`).  The parts are read off the blocks
at each pole without expanding anything (:class:`_LocalExpansion`), and an
always-on certificate proves them (:func:`_certify`).

The module also carries the three independent evaluation routes for the
*summands* (the term values of the split series):

1. printed closed formulas in terms of harmonic numbers
   (:func:`left_tail_summand`, :func:`left_mid_summand`,
   :func:`right_mid_summand`, :func:`right_low_summand`),
2. a structure-blind polynomial oracle (factored quotient rule on the
   kernel's integer expansion, one :class:`polyrat.DerivativeChain` per
   kernel), and
3. a generated route applying the rising-factorial derivative rule
   (:func:`pochhammer_derivative`) to every factor in logarithmic form: the
   local expansion that yields the principal parts, read at a point where
   no factor vanishes (:func:`_derivatives_at`).

:func:`audit_summands` samples parameter cells and compares the routes
pointwise; any disagreement is reported, none is expected.

Finally, :func:`left_form_numeric` / :func:`right_form_numeric` re-sum the
defining series on one derivative chain per side (exact integer terms to a
short cutoff, then one Euler–Maclaurin closure whose remainder bound's sign
hypothesis is proved), a cross-check free of partial fractions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor, lcm, prod

from .errors import (DivergenceError, DomainError, RangeError,
                     ReconstructionError)
from .exact_arith import binomial, factorial, harmonic, pochhammer
from .polyrat import (DerivativeChain, LinearFactorProduct, PartialFractions,
                      PoleExpansion, Polynomial, _mul_coeffs)
from .zeta_forms import (FixedPointNumber, ZetaLinearForm, bernoulli_even,
                         derivative_tail_sum)

__all__ = [
    "FormParameters",
    "left_kernel",
    "right_kernel_term",
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
    "right_tail_component",
    "right_split_check",
    "pochhammer_derivative",
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
class _BlockProduct:
    """scalar * prod (t+x)_k^e over blocks * prod (t+s)^e over loose factors,
    times an integer cofactor polynomial (ascending; 1 but on the right).

    The one written spec of a kernel (see :func:`_left_blocks`,
    :func:`_right_spec`).  It keeps the rising-factorial block structure,
    which the local expansions (:class:`_LocalExpansion`) read, at the poles
    for the principal parts and at regular points for the generated route;
    :meth:`factored` flattens it into the merged
    :class:`LinearFactorProduct`; :meth:`chain` expands it in integers into
    a :class:`DerivativeChain`; :meth:`values` steps it in integers.  A view
    that cannot carry the cofactor refuses it.
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
        """Every (shift, exponent) of the spec, the blocks flattened to
        (t + x + i)^e, unmerged; the cofactor is left out."""
        return [(x + i, e) for x, k, e in self.blocks for i in range(k)] + list(self.linears)

    def factored(self) -> LinearFactorProduct:
        """The blocks flattened to (t + x + i)^e factors, merged and sorted."""
        if self.cofactor != (1,):
            raise ValueError("a LinearFactorProduct cannot carry the polynomial cofactor")
        return LinearFactorProduct.of(self.scalar, self.linear_factors())

    def chain(self, order: int) -> DerivativeChain:
        """The kernel's :class:`DerivativeChain` up to ``order``: the integer
        expansion of the merged factors times the cofactor."""
        coeffs, scale, den_factors = LinearFactorProduct.of(
            self.scalar, self.linear_factors())._integer_parts()
        return DerivativeChain(_mul_coeffs(coeffs, self.cofactor), scale, den_factors, order)

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


def _left_blocks(p: FormParameters) -> _BlockProduct:
    """The left kernel (degree gap 3):

    (-1)^m n!^2 / (m! (2n-m)!) * (t + n/2)
      * (t-n)_m (t-2n+m)_{2n-m} (t+n+1)_n (t+n+1)_{2n-m}
      / ((t)_{n+1}^3 (t)_{2n-m+1})
    """
    n, m = p.n, p.m
    scalar = _F((-1) ** m * factorial(n) ** 2, factorial(m) * factorial(2 * n - m))
    return _BlockProduct(
        scalar,
        ((-n, m, 1), (m - 2 * n, 2 * n - m, 1), (n + 1, n, 1),
         (n + 1, 2 * n - m, 1), (0, n + 1, -3), (0, 2 * n - m + 1, -1)),
        ((_F(n, 2), 1),),
    )


def _right_spec(p: FormParameters) -> tuple[_BlockProduct, list[int]]:
    """The right kernel's shared blocks B and weights C_j, 0 <= j <= n: its
    j-th term is C_j (t-j)_n B (degree gap 2), where

    C_j = C(n,j)^2 C(2n-m+j, n),  B = (t-n)_{2n-m} / ((t)_{n+1} (t)_{2n-m+1}).
    """
    n, m = p.n, p.m
    shared = _BlockProduct(_F(1), ((-n, 2 * n - m, 1), (0, n + 1, -1),
                                   (0, 2 * n - m + 1, -1)), ())
    return shared, [binomial(n, j) ** 2 * binomial(2 * n - m + j, n) for j in range(n + 1)]


def _right_blocks(p: FormParameters, j: int) -> _BlockProduct:
    """The j-th term of the right kernel, C_j (t-j)_n B (see :func:`_right_spec`)."""
    if not 0 <= j <= p.n:
        raise RangeError(f"need 0 <= j <= n, got j = {j} at n = {p.n}")
    shared, weights = _right_spec(p)
    return replace(shared, scalar=_F(weights[j]), blocks=((-j, p.n, 1),) + shared.blocks)


def _right_kernel(p: FormParameters) -> _BlockProduct:
    """The summed right kernel P(t) B(t), P = sum_j C_j (t-j)_n in integers.

    As (t-j)_n = (t-j)_j (t)_{n-j}, P = a_n with a_j = (t+n-j) a_(j-1) +
    C_j (t-j)_j.  P vanishes at no pole of B, so P B has B's pole orders:
    at t = -q, q >= 0, (t-j)_n is 0 for j < n-q and (-1)^n (q+j-n+1)_n
    otherwise, so P(-q) = (-1)^n sum_{j >= n-q} C_j (q+j-n+1)_n, a sum of
    terms of one sign that always includes j = n.
    """
    shared, weights = _right_spec(p)
    cofactor, falling = [], [1]
    for j, weight in enumerate(weights):            # falling = (t-j)_j
        cofactor = [c + weight * f for c, f in zip(_mul_coeffs(cofactor, [p.n - j, 1]), falling)]
        falling = _mul_coeffs(falling, [-j - 1, 1])
    return replace(shared, cofactor=tuple(cofactor))


def left_kernel(p: FormParameters) -> LinearFactorProduct:
    """The left rational kernel (degree gap 3) as merged linear factors.

    After structural merging the poles sit at t = -n..0 with order 4
    (order 3 at t = -n/2 for even n, where the linear factor cancels one).
    """
    return _left_blocks(p).factored()


def right_kernel_term(p: FormParameters, j: int) -> LinearFactorProduct:
    """The j-th term of the right kernel (degree gap 2) as merged linear factors."""
    return _right_blocks(p, j).factored()


# ---------------------------------------------------------------------------
# principal parts from the block structure, with a point-evaluation certificate
# ---------------------------------------------------------------------------


def _pole_orders(bp: _BlockProduct) -> dict[int, int]:
    """{shift p: order} of the poles t = -p, from the merged block exponents."""
    candidates: set[int] = set()
    for x, k, e in bp.blocks:
        if e < 0:
            candidates.update(range(x, x + k))
    candidates.update(s for s, e in bp.linears if e < 0)
    orders: dict[int, int] = {}
    for q in candidates:
        exponent = (sum(e for x, k, e in bp.blocks if x <= q < x + k)
                    + sum(e for s, e in bp.linears if s == q))
        if exponent < 0:
            orders[q] = -exponent
    return orders


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

    def __init__(self, bp: _BlockProduct, shifts: list[int], depth: int) -> None:
        """Tables for expansions of ``bp`` at t = -shift, for each of
        ``shifts``, up to ``depth`` terms."""
        ends = [end for x, k, _ in bp.blocks if k > 0 for end in (x, x + k - 1)]
        top = max([abs(end - shift) for shift in shifts for end in ends]
                  + [abs(s.numerator - s.denominator * shift)
                     for shift in shifts for s, _ in bp.linears], default=0)
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

    def part(self, bp: _BlockProduct, shift: int, order: int) -> tuple[list[int], int]:
        """(numerators of A_1..A_order, common denominator) of bp at t = -shift.

        The denominator is the one of C times (order-1)! L^(order-1).
        """
        scale, table, factorials = self.scale, self.table, self.factorials
        num, den = bp.scalar.numerator, bp.scalar.denominator
        sums = [0] * order                  # sums[r] = P_r
        for x, k, e in bp.blocks:
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
        for s, e in bp.linears:
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
        taylor, coeffs = [], list(bp.cofactor)
        for _ in range(order):              # divide by (t + shift), keep the remainder
            for i in range(len(coeffs) - 2, -1, -1):
                coeffs[i] -= shift * coeffs[i + 1]
            taylor.append(coeffs.pop(0) if coeffs else 0)
        numerators = [sum(q * a for q, a in zip(taylor, parts[j:])) for j in range(order)]
        return numerators, den * factorials[order - 1] * scale ** (order - 1)


def _certify(bp: _BlockProduct, expansion: PartialFractions, orders: dict[int, int],
             where: str) -> None:
    """Prove that ``expansion`` is the partial-fraction form of the kernel ``bp``.

    The poles and ``orders`` found by scanning the block ranges
    (:func:`_pole_orders`) must match the negative exponents left after
    merging the flattened factors (:meth:`_BlockProduct.linear_factors`)
    shift by shift: a second algorithm over the same spec, not an
    independent spec.  The kernel must vanish at infinity, and the
    expansion must have no polynomial part and no term above its pole's
    order.
    With D = prod (t+p)^E_p over those orders, the kernel f and the
    expansion F both equal (polynomial of degree < deg D) / D, so
    f - F = R/D with deg R < deg D, and f == F at deg D distinct points
    proves R = 0.  The points are consecutive integers where every factor
    is positive.  There f = num/den (:meth:`_BlockProduct.values`), and one
    pass over every term accumulates parts / prefix = N F(x), N the
    expansion's denominator: parts = parts (x+p)^E + H(x) prefix and
    prefix *= (x+p)^E, H the Horner value of the term's numerators padded
    to its pole's order E.
    Raises ReconstructionError naming ``where`` on any mismatch.
    """
    merged: dict[Fraction | int, int] = {}
    for shift, exponent in bp.linear_factors():
        merged[shift] = merged.get(shift, 0) + exponent
    poles = {s: -e for s, e in merged.items() if e < 0}
    if orders != poles:
        raise ReconstructionError(
            f"{where}: block poles {sorted(orders.items())} differ from the "
            f"merged factors' poles {sorted(poles.items())}")
    if bp.degree >= 0:
        raise ReconstructionError(f"{where}: kernel does not vanish at infinity")
    if not expansion.polynomial_part.is_zero:
        raise ReconstructionError(f"{where}: expansion has a polynomial part")
    for term in expansion.terms:
        if term.order > orders.get(term.shift, 0):
            raise ReconstructionError(
                f"{where}: term of order {term.order} at shift {term.shift} "
                "exceeds the kernel's pole order there")

    scale = expansion.denominator
    terms = []
    for term in expansion.terms:
        order = orders.get(term.shift, 0)
        terms.append((int(term.shift), order, term.numerators + (0,) * (order - term.order)))
    start = bp.first_positive_point()
    count = sum(orders.values())
    for x, (num, den) in zip(range(start, start + count), bp.values(start, count)):
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


def _principal_parts(bp: _BlockProduct, where: str) -> PartialFractions:
    """Certified partial fractions of the block-product kernel ``bp``: one
    local expansion (:class:`_LocalExpansion`) per pole, in integers, with
    nothing expanded into a dense polynomial, rescaled to one denominator
    and proved by :func:`_certify`.
    """
    orders = _pole_orders(bp)
    local = _LocalExpansion(bp, list(orders), max(orders.values(), default=1))
    parts = [(shift, *local.part(bp, shift, orders[shift])) for shift in sorted(orders)]
    common = lcm(*(den for _, _, den in parts))
    expansion = PartialFractions(Polynomial(), tuple(
        PoleExpansion(_F(shift), tuple(c * (common // den) for c in numerators))
        for shift, numerators, den in parts), common)
    _certify(bp, expansion, orders, where)
    return expansion


# ---------------------------------------------------------------------------
# exact form values
# ---------------------------------------------------------------------------


def _left_expansion(p: FormParameters) -> PartialFractions:
    return _principal_parts(_left_blocks(p),
                            f"left side of cell (n, m) = ({p.n}, {p.m})")


def left_form(p: FormParameters) -> ZetaLinearForm:
    """Exact value of the left form: -1/3 sum_{v >= n-m+1} (d/dt kernel)(v)."""
    return _F(-1, 3) * derivative_tail_sum(_left_expansion(p), 1, p.n - p.m + 1)


def right_form(p: FormParameters) -> ZetaLinearForm:
    """Exact value of the right form: 1/6 sum_{v >= 1} (d^2/dt^2 P B)(v), one
    expansion, certificate and tail sum on the kernel of :func:`_right_kernel`.
    """
    expansion = _principal_parts(_right_kernel(p),
                                 f"right side of cell (n, m) = ({p.n}, {p.m})")
    return _F(1, 6) * derivative_tail_sum(expansion, 2, 1)


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
# the rising-factorial derivative rule and the generated route
# ---------------------------------------------------------------------------


def pochhammer_derivative(x: int, k: int, nu: int) -> Fraction:
    """d/dt (x + t)_k at t = nu, for integer x with nu + x >= 1.

    Equals (x + nu)_k * (S_1(nu+x+k-1) - S_1(nu+x-1)) by the product rule.
    """
    if k < 0:
        raise ValueError(f"pochhammer_derivative requires k >= 0, got k = {k}")
    if nu + x < 1:
        raise DomainError(
            f"derivative rule needs nu + x >= 1, got nu + x = {nu + x}")
    return _F(pochhammer(nu + x, k)) * (harmonic(1, nu + x + k - 1)
                                        - harmonic(1, nu + x - 1))


def _derivatives_at(bp: _BlockProduct, point: int, order: int) -> list[Fraction]:
    """[g, g', ..., g^(order)](point) of the kernel ``bp``, cofactor included.

    The generated summand route: the rule of :func:`pochhammer_derivative`
    (power sums over each block as harmonic differences) applied to every
    factor at once through log g, to any order.  Where no factor vanishes,
    the local expansion (:class:`_LocalExpansion`) at ``point`` as a pole of
    order ``order + 1`` has the Taylor coefficients g^(k)(point)/k! as its
    numerators.  DomainError below ``bp.first_positive_point()``.
    """
    first = bp.first_positive_point()
    if point < first:
        raise DomainError(f"derivative rule needs t >= {first}, where every factor "
                          f"is positive, got t = {point}")
    local = _LocalExpansion(bp, [-point], order + 1)
    numerators, den = local.part(bp, -point, order + 1)
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
    """Re-derive the left form from its tail + mid split and compare."""
    tail = derivative_tail_sum(_left_expansion(p), 1, 2 * p.n - p.m + 1)
    split_value = _F(-1, 3) * (tail + ZetaLinearForm.from_constant(left_mid_sum(p)))
    return split_value == left_form(p)


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


def right_tail_component(p: FormParameters, j: int) -> ZetaLinearForm:
    """Exact tail of the j-th right series from v = n+1 on."""
    expansion = _principal_parts(_right_blocks(p, j),
                                 f"right tail j = {j} of cell (n, m) = ({p.n}, {p.m})")
    return derivative_tail_sum(expansion, 2, p.n + 1)


def right_split_check(p: FormParameters) -> bool:
    """Re-derive the right form from its tail + finite split and compare."""
    total = ZetaLinearForm.from_constant(right_finite_sum(p))
    for j in range(p.n + 1):
        total = total + right_tail_component(p, j)
    return _F(1, 6) * total == right_form(p)


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
            # one chain per kernel: the left one (key None) at order 1, right j at 2
            chains = {None: _left_blocks(p).chain(1)}

            def oracle(j: int | None, x: int) -> Fraction:
                if j not in chains:
                    chains[j] = _right_blocks(p, j).chain(2)
                return chains[j].values(x)[-1]

            for nu in _sample(rng, range(1, 2 * n + 7), samples):
                record("left-tail", p, None, nu, {
                    "printed": left_tail_summand(p, nu),
                    "oracle": oracle(None, nu + shift),
                    "generated": _derivatives_at(_left_blocks(p), nu + shift, 1)[1],
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


# First cutoff tried: each failed try costs one high-order oracle call.
_FIRST_CUTOFF = 256
# Each try derives up to order + 2*_MAX_DEPTH + 2, the order of the deepest
# sign proof; a lower cap pushes A far out.
_MAX_DEPTH = 8


def _series_numeric(bp: _BlockProduct, order: int, start: int,
                    target: Fraction) -> tuple[Fraction, Fraction]:
    """(value, error bound) for sum_{v >= start} h(v), h = g^(order), where
    g is the kernel ``bp``, with no pole at t >= start.

    One chain of order ``order + 2 _MAX_DEPTH + 2`` (:meth:`_BlockProduct.chain`)
    sums the terms start..A-1 exactly and closes the tail by Euler–Maclaurin at M,
    -g^(order-1)(A) + h(A)/2 - sum_{k<=M} B_2k/(2k)! h^(2k-1)(A).  If
    h^(2M+2) keeps one sign on [A, oo), the remainder is at most
    2 |B_(2M+2)|/(2M+2)! |h^(2M+1)(A)| (DLMF 2.10.1); the bound is 4 times
    that, for the least M that takes it below ``target``.  A doubles from
    ``_FIRST_CUTOFF`` until such an M <= ``_MAX_DEPTH`` exists and the
    chain's ``keeps_sign`` proves the sign hypothesis at A; each tried A
    makes one ``values`` call.

    The closure needs g^(order-1) -> 0 at infinity, deg g <= order - 2, or
    DivergenceError is raised.  For a g that passes, the doubling ends: the
    bounds decay in A, and the Taylor shift's signs settle on the leading one.
    """
    if bp.degree > order - 2:
        raise DivergenceError(f"kernel of degree {bp.degree} has no closure at "
                              f"derivative order {order} (needs <= {order - 2})")
    weights = [bernoulli_even(2 * k) / factorial(2 * k)      # weights[k-1] = B_2k/(2k)!
               for k in range(1, _MAX_DEPTH + 2)]
    chain = bp.chain(order + 2 * _MAX_DEPTH + 2)
    cutoff = max(_FIRST_CUTOFF, start)
    while True:
        high = chain.values(cutoff)
        bounds = [8 * abs(weights[m] * high[order + 2 * m + 1])
                  for m in range(1, _MAX_DEPTH + 1)]
        depth = next((m for m, bound in enumerate(bounds, 1) if bound < target), 0)
        if depth and chain.keeps_sign(order + 2 * depth + 2, cutoff):
            break
        cutoff *= 2
    closure = -high[order - 1] + high[order] / 2 - sum(
        weights[k - 1] * high[order + 2 * k - 1] for k in range(1, depth + 1))
    partial = chain.sum(order, start, cutoff)
    return partial + closure, bounds[depth - 1]


def left_form_numeric(p: FormParameters, digits: int = 30) -> FixedPointNumber:
    """Numeric -1/3 sum_{v >= n-m+1} (d/dt left kernel)(v): the defining series."""
    value, bound = _series_numeric(_left_blocks(p), 1, p.n - p.m + 1,
                                   _F(1, 10 ** (digits + 15)))
    return FixedPointNumber.from_fraction(-value / 3, digits, inherent_error=bound / 3)


def right_form_numeric(p: FormParameters, digits: int = 30) -> FixedPointNumber:
    """Numeric 1/6 sum_{v >= 1} (d^2/dt^2 right kernel)(v): the defining series.

    Euler–Maclaurin is linear, so one closure and one remainder bound on
    the summed kernel P B (:func:`_right_kernel`) cover the whole side.
    """
    value, bound = _series_numeric(_right_kernel(p), 2, 1, _F(1, 10 ** (digits + 15)))
    return FixedPointNumber.from_fraction(value / 6, digits, inherent_error=bound / 6)
