"""The dense Fraction reference that the tests compare the integer routes against.

Nothing in the package calls it, and it reads none of the package's
polynomial types.  It holds the polynomial ring over Q (:class:`Polynomial`,
with arithmetic, long and synthetic division and Taylor prefixes), a kernel
flattened and merged by its own code (:func:`flattened`) and multiplied out
with Fraction polynomial powers (:func:`fraction_expansion`), the reference
partial-fraction decomposition of a plain numerator/denominator pair
(:func:`partial_fractions`), and derivative values read off the dense
quotient chain (:func:`chain_values`).  The decomposition splits off the
polynomial part by long division, which the package's proper
:class:`~apery4.polyrat.PartialFractions` has no field for, so it returns it
beside the principal parts.  It expands each pole by Taylor and series
division, then re-multiplies its answer and compares it with the input
(:class:`~apery4.errors.ReconstructionError` on mismatch), so a returned
expansion is certified, not merely computed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from apery4 import polyrat
from apery4.apery_forms import Kernel
from apery4.errors import Apery4Error, PoleError, ReconstructionError
from apery4.polyrat import DerivativeChain, PartialFractions, PoleExpansion

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


def flattened(kernel: Kernel) -> list[tuple[Fraction, int]]:
    """The kernel's linear factors (shift, exponent), the exponents of equal
    shifts added, zero exponents dropped, sorted by shift; no cofactor."""
    merged: dict[Fraction, int] = {}
    for shift, exponent in kernel.linear_factors():
        merged[_F(shift)] = merged.get(_F(shift), 0) + exponent
    return sorted((shift, exponent) for shift, exponent in merged.items() if exponent)


def poles(kernel: Kernel) -> list[Fraction]:
    """The shifts of the kernel's denominator factors after merging."""
    return [shift for shift, exponent in flattened(kernel) if exponent < 0]


def fraction_expansion(kernel: Kernel) -> tuple[Polynomial, Polynomial]:
    """(numerator, monic denominator) of the kernel, multiplied out with
    Fraction polynomial powers from its merged factors, the scalar and the
    cofactor in the numerator: the reference for the integer expansion
    behind every derivative chain."""
    num, den = Polynomial(kernel.cofactor) * kernel.scalar, Polynomial.one()
    for shift, exponent in flattened(kernel):
        if exponent > 0:
            num = num * Polynomial((shift, 1)) ** exponent
        else:
            den = den * Polynomial((shift, 1)) ** -exponent
    return num, den


def kernel_values(kernel: Kernel, points: Iterable[Fraction | int]) -> list[Fraction]:
    """The kernel's exact values at ``points``, from its Fraction expansion."""
    num, den = fraction_expansion(kernel)
    return [num(x) / den(x) for x in points]


def chain_values(chain: DerivativeChain, x: Fraction | int, order: int) -> list[Fraction]:
    """f(x), ..., f^(order)(x) of ``chain`` from its dense quotient chain
    (:func:`apery4.polyrat._quotient_chain`): each N_d evaluated at x over
    prod (r x + q)^(e + d), times K; PoleError at a pole."""
    linears = [(_F(shift), e) for shift, e in chain._spec[2]]
    factor = chain._spec[1]
    for shift, e in linears:
        factor *= shift.denominator ** e
    x, values = _F(x), []
    for d, numerator in enumerate(polyrat._quotient_chain(*chain._spec, order)):
        bottom = _ONE
        for shift, e in linears:
            bottom *= (shift.denominator * x + shift.numerator) ** (e + d)
        if not bottom:
            raise PoleError(f"derivative evaluation at pole t = {x}")
        values.append(factor * Polynomial(numerator)(x) / bottom)
    return values


def partial_fractions(numerator: Polynomial, denominator: Polynomial,
                      candidate_shifts: Iterable[Fraction | int]
                      ) -> tuple[Polynomial, PartialFractions]:
    """(polynomial part, principal parts) of f = numerator / denominator, with
    caller-supplied pole candidates.

    The denominator must factor completely as prod (t + p)^{e_p}
    over the candidate shifts (duplicates and non-roots among the candidates
    are harmless); otherwise FactorizationError.  For each pole the principal
    part is extracted from the local Taylor expansions of the numerator and
    of the complementary factor (series division, exact).  The result is
    re-multiplied and compared with ``f`` before being returned, as integers
    over the lcm of its coefficient denominators, its terms sorted by shift.
    """
    candidates = sorted({_F(shift) for shift in candidate_shifts})

    # polynomial part
    if numerator.degree >= denominator.degree:
        poly_part, num = numerator.divmod(denominator)
    else:
        poly_part, num = Polynomial(), numerator

    # multiplicity scan: peel candidate roots off the denominator
    remaining = denominator
    poles: list[tuple[Fraction, int]] = []
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
    terms: list[tuple[Fraction, list[Fraction]]] = []
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
        PoleExpansion(p, tuple(int(c * common) for c in coefficients))
        for p, coefficients in terms), common)


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
