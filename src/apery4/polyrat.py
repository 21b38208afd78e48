"""Dense exact polynomials, factored linear products, rational functions and
partial fractions over the rationals.

Conventions
-----------
* Polynomials are stored densely as tuples of Fractions in ascending degree
  order; the zero polynomial is the empty tuple with degree -1.
* Linear factors are written (t + shift): a *shift* p corresponds to the root
  t = -p.  A partial-fraction term "A_j / (t + p)^j" is keyed by the shift p,
  never by the root.
* Everything is exact Fraction arithmetic; nothing here touches floats.

Each kernel of the package is written once, as rising-factorial blocks
(see :mod:`apery4.apery_forms`); :class:`LinearFactorProduct` is its
flattened form, with repeated shifts merged.  The exact forms take their
principal parts straight from the blocks and return them as
:class:`PartialFractions`; no production path expands a kernel into dense
polynomials.  Dense expansion serves the independent oracles instead:
:func:`factored_derivative_values` evaluates summand derivatives blindly,
and :func:`partial_fractions` is the dense reference decomposition the
tests compare the block route against.  It decomposes an expanded rational
function over caller-supplied pole candidates, then re-multiplies its answer
and compares against the input (:class:`~apery4.errors.ReconstructionError`
on mismatch), so a returned expansion is certified, not merely computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import FactorizationError, PoleError, ReconstructionError

__all__ = [
    "Polynomial",
    "LinearFactorProduct",
    "RationalFunction",
    "PoleExpansion",
    "PartialFractions",
    "partial_fractions",
    "factored_derivative_values",
]

_F = Fraction
_ZERO = _F(0)
_ONE = _F(1)


def _as_fraction(value: Fraction | int) -> Fraction:
    return value if isinstance(value, Fraction) else _F(value)


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


class Polynomial:
    """Immutable dense polynomial over Q, coefficients ascending by degree."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        normalized = [_as_fraction(c) for c in coeffs]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        object.__setattr__(self, "_coeffs", tuple(normalized))

    # -- basic structure ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            return _ZERO
        return self._coeffs[-1]

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

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            if other == 0:
                return Polynomial()
            s = _as_fraction(other)
            return Polynomial(tuple(c * s for c in self._coeffs))
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
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

    def __call__(self, x: Fraction | int) -> Fraction:
        """Evaluate by Horner's scheme."""
        acc: Fraction | int = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return _as_fraction(acc)

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(c * i for i, c in enumerate(self._coeffs))[1:])

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact long division: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
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
            for j, oc in enumerate(other._coeffs):
                rem[i - d + j] -= f * oc
        return Polynomial(q), Polynomial(rem[:d])

    def div_linear(self, root: Fraction | int) -> tuple["Polynomial", Fraction]:
        """Divide by (t - root): returns (quotient, remainder = self(root)).

        Synthetic division; the workhorse for multiplicity scans and Taylor
        prefixes, so it avoids general long division.
        """
        if self.is_zero:
            return self, _ZERO
        desc = self._coeffs[::-1]
        acc = desc[0]
        out = [acc]
        for c in desc[1:]:
            acc = acc * root + c
            out.append(acc)
        return Polynomial(out[-2::-1]), _as_fraction(out[-1])

    def taylor_prefix(self, center: Fraction | int, count: int) -> list[Fraction]:
        """First ``count`` Taylor coefficients of self around t = center.

        Computed by repeated synthetic division: self(t) = sum a_i (t-center)^i
        and the returned list is [a_0, ..., a_{count-1}].
        """
        out: list[Fraction] = []
        current = self
        for _ in range(count):
            current, rem = current.div_linear(center)
            out.append(rem)
        return out

    # -- comparison / presentation -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self._coeffs[i]
            if c == 0:
                continue
            mag = str(abs(c))
            if i == 0:
                body = mag
            else:
                power = "t" if i == 1 else f"t^{i}"
                body = power if abs(c) == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# LinearFactorProduct
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFactorProduct:
    """scalar * prod_i (t + shift_i)^(exponent_i) with distinct sorted shifts.

    Construction always merges repeated shifts by adding exponents and drops
    exponent 0, so a numerator factor cancels structurally against an equal
    denominator factor.  As a consequence :meth:`expand` produces a rational
    function that is coprime *by construction* — no polynomial gcd needed.
    """

    scalar: Fraction
    factors: tuple[tuple[Fraction, int], ...]

    @classmethod
    def of(cls, scalar: Fraction | int,
           factors: Iterable[tuple[Fraction | int, int]] = ()) -> "LinearFactorProduct":
        # int and Fraction keys of equal value hash alike, so shifts merge
        # before the survivors are converted; most shifts are ints, which
        # hash and sort far faster than Fractions.
        merged: dict[Fraction | int, int] = {}
        for shift, exponent in factors:
            merged[shift] = merged.get(shift, 0) + exponent
        ordered = tuple((_as_fraction(shift), exponent)
                        for shift, exponent in sorted(merged.items()) if exponent)
        return cls(_as_fraction(scalar), ordered)

    # -- structure readouts ---------------------------------------------------

    @property
    def numerator_degree(self) -> int:
        return sum(e for _, e in self.factors if e > 0)

    @property
    def denominator_degree(self) -> int:
        return -sum(e for _, e in self.factors if e < 0)

    @property
    def degree_gap(self) -> int:
        """deg(denominator) - deg(numerator)."""
        return self.denominator_degree - self.numerator_degree

    def denominator_shifts(self) -> tuple[Fraction, ...]:
        return tuple(s for s, e in self.factors if e < 0)

    # -- evaluation / expansion -----------------------------------------------

    def value_at(self, x: Fraction | int) -> Fraction:
        """Exact value at t = x; PoleError on a denominator zero."""
        num: Fraction | int = 1
        den: Fraction | int = 1
        for shift, exponent in self.factors:
            base = _as_fraction(x) + shift
            if exponent > 0:
                num *= base ** exponent
            else:
                if base == 0:
                    raise PoleError(f"evaluation at pole t = {x} (shift {shift})")
                den *= base ** (-exponent)
        return self.scalar * _as_fraction(num) / _as_fraction(den)

    def expand_parts(self) -> tuple[Polynomial, tuple[tuple[Fraction, int], ...]]:
        """(numerator polynomial including scalar, denominator factor list).

        The denominator is kept factored as (shift, positive exponent) pairs.
        """
        num = [self.scalar]
        den: list[tuple[Fraction, int]] = []
        for shift, exponent in self.factors:
            if exponent > 0:
                for _ in range(exponent):
                    num = _mul_linear(num, shift)
            else:
                den.append((shift, -exponent))
        return Polynomial(num), tuple(den)

    def expand(self) -> "RationalFunction":
        """Expand to a RationalFunction, coprime by construction."""
        num, den_factors = self.expand_parts()
        if num.is_zero:
            return RationalFunction(Polynomial(), Polynomial.one())
        den = [_ONE]
        for shift, exponent in den_factors:
            for _ in range(exponent):
                den = _mul_linear(den, shift)
        return RationalFunction(num, Polynomial(den))

    def derivative_values_at(self, x: Fraction | int, order: int) -> list[Fraction]:
        """[f(x), f'(x), ..., f^(order)(x)] via the factored quotient rule."""
        num, den_factors = self.expand_parts()
        return factored_derivative_values(num, den_factors, x, order)


def _mul_linear(coeffs: list[Fraction], shift: Fraction) -> list[Fraction]:
    """Multiply an ascending coefficient list by (t + shift)."""
    out = [coeffs[0] * shift]
    for i in range(1, len(coeffs)):
        out.append(coeffs[i] * shift + coeffs[i - 1])
    out.append(coeffs[-1])
    return out


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """numerator / denominator with a monic denominator: the plain input of
    :func:`partial_fractions`.

    The constructor trusts the caller on coprimality (it holds structurally
    for :meth:`LinearFactorProduct.expand`) but always enforces a monic
    nonzero denominator.
    """

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self) -> None:
        if self.denominator.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if self.denominator.leading_coefficient != 1:
            raise ValueError("denominator must be monic")

    def evaluate(self, x: Fraction | int) -> Fraction:
        den = self.denominator(x)
        if den == 0:
            raise PoleError(f"evaluation at pole t = {x}")
        return self.numerator(x) / den


# ---------------------------------------------------------------------------
# factored-denominator derivatives (oracle support)
# ---------------------------------------------------------------------------


def factored_derivative_values(numerator: Polynomial,
                               den_factors: Sequence[tuple[Fraction, int]],
                               x: Fraction | int,
                               order: int) -> list[Fraction]:
    """Evaluate f, f', ..., f^(order) at x for f = numerator / prod (t+s_i)^{e_i}.

    The denominator is never expanded: with P = prod_i (t + s_i) over the
    distinct shifts and E_d = sum_i (e_i + d) * P/(t + s_i), one exact
    quotient-rule step sends the numerator N to N'*P - N*E_d while every
    denominator exponent grows by one.  This keeps all arithmetic polynomial
    (no gcd), which matters for the high-degree summand kernels.
    """
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    point = _as_fraction(x)
    for shift, _ in den_factors:
        if point + shift == 0:
            raise PoleError(f"derivative evaluation at pole t = {x} (shift {shift})")

    # P and its linear cofactors
    p_coeffs = [_ONE]
    for shift, _ in den_factors:
        p_coeffs = _mul_linear(p_coeffs, shift)
    P = Polynomial(p_coeffs)
    cofactors = [P.div_linear(-shift)[0] for shift, _ in den_factors]
    e_weighted = Polynomial()
    c_sum = Polynomial()
    for (_, exponent), cof in zip(den_factors, cofactors):
        e_weighted = e_weighted + cof * exponent
        c_sum = c_sum + cof

    def den_value(extra: int) -> Fraction:
        value = _ONE
        for shift, exponent in den_factors:
            value *= (point + shift) ** (exponent + extra)
        return value

    values = [numerator(point) / den_value(0)]
    current = numerator
    for d in range(order):
        current = current.derivative() * P - current * (e_weighted + c_sum * d)
        values.append(current(point) / den_value(d + 1))
    return values


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleExpansion:
    """Principal part at one pole: sum_j coefficients[j-1] / (t + shift)^j."""

    shift: Fraction
    coefficients: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class PartialFractions:
    """polynomial_part + sum over poles of principal parts."""

    polynomial_part: Polynomial
    terms: tuple[PoleExpansion, ...]

    def _principal_numerator(self, common_denominator: Polynomial) -> Polynomial:
        """sum_{p,j} A_{p,j} * (D / (t+p)^j), exact (every division is exact)."""
        acc = Polynomial()
        for term in self.terms:
            quotient = common_denominator
            root = -term.shift
            for coeff in term.coefficients:
                quotient, rem = quotient.div_linear(root)
                if rem != 0:
                    raise ReconstructionError(
                        f"common denominator not divisible by (t + {term.shift})")
                if coeff:
                    acc = acc + quotient * coeff
        return acc


def partial_fractions(f: RationalFunction,
                      candidate_shifts: Iterable[Fraction | int]) -> PartialFractions:
    """Partial-fraction decomposition with caller-supplied pole candidates.

    The denominator of ``f`` must factor completely as prod (t + p)^{e_p}
    over the candidate shifts (duplicates and non-roots among the candidates
    are harmless); otherwise FactorizationError.  For each pole the principal
    part is extracted from the local Taylor expansions of the numerator and
    of the complementary factor (series division, exact).  The result is
    re-multiplied and compared with ``f`` before being returned.

    Returns a :class:`PartialFractions` whose terms are sorted by shift.
    """
    seen: set[Fraction] = set()
    candidates: list[Fraction] = []
    for shift in candidate_shifts:
        p = _as_fraction(shift)
        if p not in seen:
            seen.add(p)
            candidates.append(p)
    candidates.sort()

    # polynomial part
    if f.numerator.degree >= f.denominator.degree:
        poly_part, num = f.numerator.divmod(f.denominator)
    else:
        poly_part, num = Polynomial(), f.numerator

    # multiplicity scan: peel candidate roots off the denominator
    remaining = f.denominator
    poles: list[tuple[Fraction, int]] = []
    for p in candidates:
        root = -p
        mult = 0
        while remaining.degree >= 1:
            quotient, rem = remaining.div_linear(root)
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
    terms: list[PoleExpansion] = []
    for p, e in poles:
        center = -p
        num_prefix = num.taylor_prefix(center, e)
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
        coefficients = tuple(series[e - j] for j in range(1, e + 1))
        terms.append(PoleExpansion(p, coefficients))

    result = PartialFractions(poly_part, tuple(terms))

    # always-on certification: rebuild the numerator over f's own denominator
    rebuilt = result.polynomial_part * f.denominator
    rebuilt = rebuilt + result._principal_numerator(f.denominator)
    if rebuilt != f.numerator:
        raise ReconstructionError(
            "partial fraction expansion failed to reproduce its input")
    return result


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
