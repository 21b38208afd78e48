"""The dense Fraction reference that the tests compare the integer routes against.

Nothing in the package calls it, and it reads none of the package's
polynomial types.  It holds the polynomial ring over Q (:class:`Polynomial`,
with arithmetic, long and synthetic division and Taylor prefixes), a kernel
flattened and merged by its own code (:func:`flattened`) and multiplied out
with Fraction polynomial powers (:func:`fraction_expansion`), the reference
partial-fraction decomposition of a plain numerator/denominator pair
(:func:`partial_fractions`), derivative values read off the dense
quotient chain (:func:`chain_values`), and the Fraction view of the
integer derivative numerators that the package returns
(:func:`fraction_values`).  It also keeps the Fraction routes
that the package's integer sums replaced: Euler–Maclaurin zeta values
summed term by term (:func:`zeta_value`), the Euler–Maclaurin closure read
off Fraction derivative values (:func:`closure`), fixed-point rounding of a
Fraction (:func:`fixed_point`), tail sums read off cached harmonic
numbers (:func:`derivative_tail_sum`), the numeric route's remainder
bound computed whole at each cutoff (:func:`remainder_bound`), the
three-term recurrence summed as Fraction linear forms
(:func:`recurrence_holds`) and a kernel's pole orders scanned candidate by
candidate over every block (:func:`pole_orders`).  The decomposition splits off the
polynomial part by long division, which the package's proper
:class:`~apery4.polyrat.PartialFractions` has no field for, so it returns it
beside the principal parts.  It expands each pole by Taylor and series
division, then re-multiplies its answer and compares it with the input
(:class:`~apery4.errors.ReconstructionError` on mismatch), so a returned
expansion is certified, not merely computed.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, lcm, sqrt
from typing import Iterable

from apery4 import polyrat
from apery4.apery_forms import Kernel
from apery4.errors import Apery4Error, PoleError, PoleInRangeError, ReconstructionError
from apery4.exact_arith import factorial, harmonic, pochhammer
from apery4.polyrat import DerivativeChain, PartialFractions
from apery4.recurrence_lab import recurrence_coefficients
from apery4.zeta_forms import ZETA_ORDERS, FixedPointNumber, ZetaLinearForm, bernoulli_even

_F = Fraction
_ZERO = _F(0)
_ONE = _F(1)


class FactorizationError(Apery4Error, ArithmeticError):
    """The supplied candidate shifts do not exhaust a denominator."""


class Polynomial:
    """A dense polynomial over Q, coefficients ascending by degree, with ring
    operations; the zero polynomial has degree -1.  Integral coefficients are
    kept as ints, which multiply far faster than Fractions."""

    __slots__ = ("coefficients",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        normalized = [c if isinstance(c, int) else _F(c) for c in coeffs]
        normalized = [c.numerator if c.denominator == 1 else c for c in normalized]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        self.coefficients = tuple(normalized)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[-1] if self.coefficients else _ZERO

    def __call__(self, x: Fraction | int) -> Fraction:
        """Evaluate by Horner's scheme."""
        acc: Fraction | int = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return _F(acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coefficients]})"

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def variable(cls) -> "Polynomial":
        """The polynomial t."""
        return cls((0, 1))

    @classmethod
    def constant(cls, value: Fraction | int) -> "Polynomial":
        return cls((value,))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coefficients)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial(-c for c in other.coefficients)

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            return Polynomial(c * other for c in self.coefficients)
        out: list[Fraction | int] = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(
                f"polynomial powers need an integer exponent >= 0, got {exponent!r}")
        out = Polynomial.one()
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(c * i for i, c in enumerate(self.coefficients))[1:])

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact long division: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        d = other.degree
        lead = other.leading_coefficient
        if len(rem) <= d:
            return Polynomial(), self
        q = [_ZERO] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / lead
            q[i - d] = f
            for j, oc in enumerate(other.coefficients):
                rem[i - d + j] -= f * oc
        return Polynomial(q), Polynomial(rem[:d])

    def div_linear(self, root: Fraction | int) -> tuple["Polynomial", Fraction]:
        """Divide by (t - root): returns (quotient, remainder = self(root))."""
        if self.is_zero:
            return self, _ZERO
        desc = self.coefficients[::-1]
        acc = desc[0]
        out = [acc]
        for c in desc[1:]:
            acc = acc * root + c
            out.append(acc)
        return Polynomial(out[-2::-1]), _F(out[-1])

    def taylor_prefix(self, center: Fraction | int, count: int) -> list[Fraction]:
        """First ``count`` Taylor coefficients of self around t = center, by
        repeated synthetic division: self(t) = sum a_i (t-center)^i."""
        out: list[Fraction] = []
        current = self
        for _ in range(count):
            current, rem = current.div_linear(center)
            out.append(rem)
        return out


def _merged(factors: Iterable[tuple[Fraction | int, int]]) -> list[tuple[Fraction | int, int]]:
    """(shift, exponent) pairs, the exponents of equal shifts added, zero
    exponents dropped, sorted by shift."""
    merged: dict[Fraction | int, int] = {}
    for shift, exponent in factors:
        merged[shift] = merged.get(shift, 0) + exponent
    return sorted((shift, exponent) for shift, exponent in merged.items() if exponent)


def flattened(kernel: Kernel) -> list[tuple[int, int]]:
    """The kernel's linear factors (shift, exponent), each block (t + x)_k^e
    flattened to (t + x + i)^e, the exponents of equal shifts added, zero
    exponents dropped, sorted by shift; no cofactor."""
    return _merged((x + i, e) for x, k, e in kernel.blocks for i in range(k))


def pole_orders(kernel: Kernel) -> dict[int, int]:
    """{shift p: order} of the kernel's poles, scanned candidate by candidate:
    every shift of a block with a negative exponent, its exponent summed over
    every block whose integer shifts x..x+k-1 hold it."""
    candidates: set[int] = set()
    for x, k, e in kernel.blocks:
        if e < 0:
            candidates.update(range(x, x + k))
    orders = {}
    for q in candidates:
        exponent = sum(e for x, k, e in kernel.blocks if q in range(x, x + k))
        if exponent < 0:
            orders[q] = -exponent
    return orders


def poles(kernel: Kernel) -> list[int]:
    """The shifts of the kernel's denominator factors after merging."""
    return [shift for shift, exponent in flattened(kernel) if exponent < 0]


def fraction_expansion(kernel: Kernel) -> tuple[Polynomial, Polynomial]:
    """(numerator, monic denominator) of the kernel, multiplied out with
    Fraction polynomial powers from its merged factors, the scalar and the
    cofactor in the numerator: the reference for the integer expansion
    behind every derivative chain."""
    return factor_expansion(kernel.scalar, flattened(kernel), kernel.cofactor)


def factor_expansion(scalar: Fraction | int, factors: Iterable[tuple[Fraction | int, int]],
                     cofactor: Iterable[int] = (1,)) -> tuple[Polynomial, Polynomial]:
    """(numerator, monic denominator) of scalar * cofactor * prod (t + s)^e,
    the factors (s, e) merged first, at any rational shifts."""
    num, den = Polynomial(cofactor) * scalar, Polynomial.one()
    for shift, exponent in _merged(factors):
        if exponent > 0:
            num = num * Polynomial((shift, 1)) ** exponent
        else:
            den = den * Polynomial((shift, 1)) ** -exponent
    return num, den


def kernel_values(kernel: Kernel, points: Iterable[Fraction | int]) -> list[Fraction]:
    """The kernel's exact values at ``points``, from its Fraction expansion."""
    num, den = fraction_expansion(kernel)
    return [num(x) / den(x) for x in points]


def fraction_values(derivatives: tuple[list[int], int]) -> list[Fraction]:
    """The Fraction view of an integer derivative pair ([N_0, ..., N_k], D),
    as :meth:`~apery4.polyrat.DerivativeChain.numerators` and
    :func:`~apery4.apery_forms._derivative_numerators` return it: each N_d / D."""
    numerators, denominator = derivatives
    return [_F(n, denominator) for n in numerators]


def chain_values(chain: DerivativeChain, x: Fraction | int, order: int) -> list[Fraction]:
    """f(x), ..., f^(order)(x) of ``chain`` from its dense quotient chain
    (:func:`apery4.polyrat._quotient_chain`) over its numerator, its
    numerator factors multiplied out here as Fraction polynomials: each N_d
    evaluated at x over prod (x + q)^(e + d), times K; PoleError at a pole."""
    dense = Polynomial(chain._coeffs)
    for q, e in chain._factors:
        dense = dense * Polynomial((q, 1)) ** e
    values = []
    for d, numerator in enumerate(polyrat._quotient_chain(dense.coefficients, chain._shifts,
                                                          order)):
        bottom = 1
        for shift, e in chain._shifts:
            bottom *= (x + shift) ** (e + d)
        if not bottom:
            raise PoleError(f"derivative evaluation at pole t = {x}")
        values.append(chain._scale * Polynomial(numerator)(x) / bottom)
    return values


def closure(chain: DerivativeChain, cutoff: int, order: int, depth: int) -> Fraction:
    """-g^(order-1)(A) + h(A)/2 - sum_{k<=M} B_2k/(2k)! h^(2k-1)(A), h = g^(order),
    at A = ``cutoff``, M = ``depth``: from the Fraction values of ``chain``,
    each term's numerator brought over the lcm of the weights and the lcm of
    the values' denominators."""
    high = fraction_values(chain.numerators(cutoff, order + 2 * depth - 1))
    terms = [(-1, 1, high[order - 1]), (1, 2, high[order])] + [
        (-b.numerator, b.denominator * factorial(2 * k), high[order + 2 * k - 1])
        for k in range(1, depth + 1) for b in [bernoulli_even(2 * k)]]
    weights, values = lcm(*(w for _, w, _ in terms)), lcm(*(h.denominator for *_, h in terms))
    return _F(sum(c * (weights // w) * h.numerator * (values // h.denominator)
                  for c, w, h in terms), weights * values)


def remainder_bound(expansion: tuple, order: int, depth: int, cutoff: int) -> Fraction:
    """The numeric route's remainder bound after ``depth`` closure terms at
    A = ``cutoff``, unfactored: every factor computed at this A, the
    Cauchy circle's alpha rationalised as the package does."""
    coeffs, scale, poles = expansion
    big_d, big_e, k = len(coeffs) - 1, -sum(e for _, e in poles), order + 2 * depth + 2
    gap = big_e - big_d + k
    root = (sqrt((big_d + big_e) ** 2 + 4 * gap * k) - big_d - big_e) / (2 * gap)
    q = ceil(1000 / root)
    alpha = _F(round(root * q), q)
    top = sum(abs(c) * cutoff ** i for i, c in enumerate(coeffs))
    return (2 * abs(bernoulli_even(k - order)) / factorial(k - order) * factorial(k)
            * abs(scale) * top * (1 + alpha) ** big_d
            / ((1 - alpha) ** big_e * alpha ** k * _F(cutoff) ** (big_e + k - 1) * (gap - 1)))


def fixed_point(value: Fraction, scale: int,
                inherent_error: Fraction = _ZERO) -> FixedPointNumber:
    """``value`` rounded half up to ``scale`` decimals by Fraction arithmetic,
    its bound the rounding error plus ``inherent_error``, rounded up to whole
    tenths of the last digit."""
    shifted = value * 10**scale
    mantissa = (shifted.numerator * 2 + shifted.denominator) // (2 * shifted.denominator)
    bound = abs(_F(mantissa, 10**scale) - value) + inherent_error
    return FixedPointNumber(mantissa, scale, _F(ceil(bound * 10**(scale + 1)), 10**(scale + 1)))


def partial_fractions(numerator: Polynomial, denominator: Polynomial,
                      candidate_shifts: Iterable[int]
                      ) -> tuple[Polynomial, PartialFractions]:
    """(polynomial part, principal parts) of f = numerator / denominator, with
    caller-supplied pole candidates, int shifts.

    The denominator must factor completely as prod (t + p)^{e_p}
    over the candidate shifts (duplicates and non-roots among the candidates
    are harmless); otherwise FactorizationError.  For each pole the principal
    part is extracted from the local Taylor expansions of the numerator and
    of the complementary factor (series division, exact).  The result is
    re-multiplied and compared with ``f`` before being returned, as integers
    over the lcm of its coefficient denominators, its terms sorted by shift.
    """
    candidates = sorted(set(candidate_shifts))

    # polynomial part
    if numerator.degree >= denominator.degree:
        poly_part, num = numerator.divmod(denominator)
    else:
        poly_part, num = Polynomial(), numerator

    # multiplicity scan: peel candidate roots off the denominator
    remaining = denominator
    poles: list[tuple[int, int]] = []
    for p in candidates:
        mult = 0
        while remaining.degree >= 1:
            quotient, rem = remaining.div_linear(-p)
            if rem != 0:
                break
            remaining = quotient
            mult += 1
        if mult:
            poles.append((p, mult))
    if remaining.degree > 0:
        raise FactorizationError(
            f"denominator keeps a degree-{remaining.degree} cofactor "
            f"({remaining}) outside the candidate shifts")

    # local expansions
    terms: list[tuple[int, list[Fraction]]] = []
    for p, e in poles:
        num_prefix = num.taylor_prefix(-p, e)
        cof_series = [_ONE] + [_ZERO] * (e - 1)
        for q, eq in poles:
            if q == p:
                continue
            delta = q - p
            for _ in range(eq):
                for i in range(e - 1, 0, -1):
                    cof_series[i] = cof_series[i] * delta + cof_series[i - 1]
                cof_series[0] = cof_series[0] * delta
        series = _series_divide(num_prefix, cof_series, e)
        # a numerator sharing the factor leaves zero top coefficients: trim them
        coefficients = [series[e - j] for j in range(1, e + 1)]
        while coefficients and coefficients[-1] == 0:
            coefficients.pop()
        if coefficients:
            terms.append((p, coefficients))

    # certification: rebuild the numerator over f's own denominator as
    # poly_part * D + sum_{p,j} A_{p,j} D / (t+p)^j (every division exact)
    rebuilt = poly_part * denominator
    for p, coefficients in terms:
        quotient = denominator
        for coeff in coefficients:
            quotient, rem = quotient.div_linear(-p)
            if rem != 0:
                raise ReconstructionError(f"common denominator not divisible by (t + {p})")
            rebuilt = rebuilt + quotient * coeff
    if rebuilt != numerator:
        raise ReconstructionError(
            "partial fraction expansion failed to reproduce its input")
    common = lcm(*(c.denominator for _, coefficients in terms for c in coefficients))
    return poly_part, PartialFractions(tuple(
        (p, tuple(int(c * common) for c in coefficients)) for p, coefficients in terms), common)


def _series_divide(num: list[Fraction], den: list[Fraction], count: int) -> list[Fraction]:
    """First ``count`` coefficients of num(u)/den(u) as power series (den[0] != 0)."""
    lead = den[0]
    if lead == 0:
        raise ZeroDivisionError("series division by a series with zero constant term")
    out: list[Fraction] = []
    for i in range(count):
        acc = num[i] if i < len(num) else _ZERO
        for k in range(1, min(i, len(den) - 1) + 1):
            acc = acc - den[k] * out[i - k]
        out.append(acc / lead)
    return out


def derivative_tail_sum(expansion: PartialFractions, order: int, start: int) -> ZetaLinearForm:
    """sum_{v >= start} f^(order)(v), each tail of (v+p)^(-s) taken as zeta(s)
    minus the cached harmonic Fraction S_s(p+start-1), with the weight
    (-1)^order (j)_order from ``pochhammer``; the constant is accumulated over
    lcm(1..top)^5 as ``unit // S.denominator`` per numerator."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    top = max((int(shift) + start - 1 for shift, _ in expansion.terms), default=0)
    unit = lcm(*range(1, top + 1)) ** ZETA_ORDERS[-1]
    constant, zetas = 0, [0] * len(ZETA_ORDERS)
    for shift, numerators in expansion.terms:
        if shift.denominator != 1:
            raise ValueError(f"pole shift {shift} is not an integer")
        p = int(shift)
        if -p >= start:
            raise PoleInRangeError(
                f"pole at t = {-p} lies inside the summation range [{start}, oo)")
        for j, c in enumerate(numerators, start=1):
            if not c:
                continue
            s = j + order
            if s not in ZETA_ORDERS:
                raise ValueError(f"zeta({s}) is outside the tracked basis {ZETA_ORDERS}")
            weighted = (-1) ** order * pochhammer(j, order) * c
            zetas[s - 2] += weighted
            h = harmonic(s, p + start - 1)
            constant -= weighted * h.numerator * (unit // h.denominator)
    return ZetaLinearForm(_F(constant, expansion.denominator * unit),
                          tuple(_F(z, expansion.denominator) for z in zetas))


def _euler_maclaurin_bound(s: int, cutoff: int, depth: int) -> Fraction:
    """4 (s)_{2 depth + 1} / (39^(depth + 1) cutoff^(s + 2 depth + 1))."""
    return _F(4 * pochhammer(s, 2 * depth + 1),
              39 ** (depth + 1) * cutoff ** (s + 2 * depth + 1))


def zeta_value(s: int, digits: int) -> tuple[int, int, FixedPointNumber]:
    """(N, M, zeta(s) to ``digits`` decimals): N doubles from 8 and M steps
    from 1 with a Fraction bound per depth, the Euler–Maclaurin sum adds
    Fractions term by term, and :func:`fixed_point` rounds it."""
    target = _F(1, 10 ** (digits + 3))
    cutoff = 8
    while True:
        depth = 1
        bound = _euler_maclaurin_bound(s, cutoff, depth)
        while bound >= target and depth <= 3 * cutoff:
            depth += 1
            bound = _euler_maclaurin_bound(s, cutoff, depth)
        if bound < target:
            break
        cutoff = cutoff * 2
    total = _F(sum(_F(1, k**s) for k in range(1, cutoff)))
    total += _F(1, 2 * cutoff**s)
    total += _F(1, (s - 1) * cutoff ** (s - 1))
    for i in range(1, depth + 1):
        total += (bernoulli_even(2 * i) / factorial(2 * i)
                  * pochhammer(s, 2 * i - 1) / cutoff ** (s + 2 * i - 1))
    return cutoff, depth, fixed_point(total, digits, inherent_error=bound)


def recurrence_holds(values, n: int, m: int) -> bool:
    """a0 Z(n,m) + a1 Z(n,m+1) + a2 Z(n,m+2) == 0, summed as linear forms of
    Fractions, each step normalised."""
    a0, a1, a2 = recurrence_coefficients(n, m)
    return (a0 * values[(n, m)] + a1 * values[(n, m + 1)] + a2 * values[(n, m + 2)]).is_zero
