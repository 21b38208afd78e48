"""Exact polynomials, factored linear products, their derivative chains and
the principal-parts result type, over the rationals.

Conventions
-----------
* Polynomials are stored densely as tuples of Fractions in ascending degree
  order; the zero polynomial is the empty tuple with degree -1.
* Linear factors are written (t + shift): a *shift* p corresponds to the root
  t = -p.  A partial-fraction term "A_j / (t + p)^j" is keyed by the shift p,
  never by the root.
* Everything is exact rational arithmetic; nothing here touches floats.

Each kernel of the package is written once, as rising-factorial blocks
(:class:`apery4.apery_forms.Kernel`).  The exact forms take their principal
parts straight from the blocks, in integers, and return them as
:class:`PartialFractions` (proper principal parts: integer numerators over
one reduced denominator), never expanding a kernel.  A
:class:`DerivativeChain` holds a kernel's integer expansion; it takes
derivative values at a point by the product and quotient rule on Taylor
series there, and builds the dense integer quotient-rule chain on first
need, for exact sums over a range: the route of the numeric series and of
the summand oracle.  :class:`LinearFactorProduct` (a flattened kernel with
repeated shifts merged) and the plain dense :class:`Polynomial` and
:class:`RationalFunction` that its :meth:`~LinearFactorProduct.expand`
returns have no reader in the package; they stay only while the
benchmark's layer tracer (``bench/layers.py``) wraps ``expand`` and
``expand_parts`` by name (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import PoleError

__all__ = [
    "Polynomial",
    "LinearFactorProduct",
    "RationalFunction",
    "PoleExpansion",
    "PartialFractions",
    "DerivativeChain",
]

_F = Fraction
_ZERO = _F(0)


def _as_fraction(value: Fraction | int) -> Fraction:
    return value if isinstance(value, Fraction) else _F(value)


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


class Polynomial:
    """Immutable dense polynomial over Q, coefficients ascending by degree:
    the plain form :meth:`LinearFactorProduct.expand` returns, evaluated by
    Horner's scheme.  It carries no arithmetic."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        normalized = [_as_fraction(c) for c in coeffs]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        object.__setattr__(self, "_coeffs", tuple(normalized))

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

    def __call__(self, x: Fraction | int) -> Fraction:
        """Evaluate by Horner's scheme."""
        acc: Fraction | int = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return _as_fraction(acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"


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
        merged = sorted(_merged_shifts(factors).items())
        ordered = tuple((_as_fraction(shift), exponent) for shift, exponent in merged if exponent)
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

        The denominator is kept factored as (shift, positive exponent) pairs;
        the numerator is multiplied out in integers and scaled once.
        """
        coeffs, scale, den_factors = self._integer_parts()
        return Polynomial(c * scale for c in coeffs), den_factors

    def _integer_parts(self) -> tuple[list[int], Fraction, tuple[tuple[Fraction, int], ...]]:
        """(integer numerator coefficients, their scale, denominator factors)."""
        coeffs, lead = _linear_product((s, e) for s, e in self.factors if e > 0)
        return coeffs, self.scalar / lead, tuple((s, -e) for s, e in self.factors if e < 0)

    def expand(self) -> "RationalFunction":
        """Expand to a RationalFunction, coprime by construction."""
        num, den_factors = self.expand_parts()
        coeffs, lead = _linear_product(den_factors if not num.is_zero else ())
        return RationalFunction(num, Polynomial(_F(c, lead) for c in coeffs))


def _merged_shifts(factors: Iterable[tuple[Fraction | int, int]]) -> dict[Fraction | int, int]:
    """The exponents of equal shifts added.  int and Fraction keys of equal
    value hash alike, so shifts merge before any is converted; most shifts
    are ints, which hash and sort far faster than Fractions."""
    merged: dict[Fraction | int, int] = {}
    for shift, exponent in factors:
        merged[shift] = merged.get(shift, 0) + exponent
    return merged


def _linear_product(factors: Iterable[tuple[Fraction | int, int]]) -> tuple[list[int], int]:
    """(coefficients of prod (r t + q)^e, prod r^e) for shifts q/r, e >= 0: so
    prod (t + q/r)^e is the integer coefficient list over that one integer."""
    coeffs, lead = [1], 1
    for shift, exponent in factors:
        q, r = shift.as_integer_ratio()
        for _ in range(exponent):
            coeffs = _times_linear(coeffs, q, r)
        lead *= r ** exponent
    return coeffs, lead


def _times_linear(coeffs: list[int], q: int, r: int) -> list[int]:
    """coeffs times (r t + q), synthetically; [] gives [0]."""
    return [q * c + r * v for c, v in zip(coeffs + [0], [0] + coeffs)]


def _mul_coeffs(a: Sequence, b: Sequence) -> list:
    """Product of two ascending coefficient lists (integers or Fractions)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """numerator / denominator with a monic denominator: the dense form that
    :meth:`LinearFactorProduct.expand` returns, coprime by construction.

    The constructor only enforces a monic nonzero denominator.
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
# derivative chains
# ---------------------------------------------------------------------------


def _quotient_chain(coeffs: Sequence[int], scale: Fraction,
                    den_factors: Sequence[tuple[Fraction | int, int]],
                    order: int) -> list[list[int]]:
    """[N_0..N_order], f^(d) = K N_d / prod (r t + q)^(e + d), K = scale prod r^e.

    f = scale * sum coeffs[i] t^i / prod (t + q/r)^e.  With P = prod (r t + q)
    and W = sum e r P/(r t + q), one quotient-rule step sends N_d to
    N_d' P - N_d (W + d P'): integers throughout, no gcd.
    """
    p_coeffs, weighted = [1], []
    for shift, e in den_factors:
        q, r = shift.as_integer_ratio()
        # (P, W) -> (P l, W l + e r P) for the next factor l = r t + q
        weighted = [w + e * r * c for w, c in zip(_times_linear(weighted, q, r), p_coeffs)]
        p_coeffs = _times_linear(p_coeffs, q, r)
    p_prime = [k * c for k, c in enumerate(p_coeffs)][1:]
    chain = [list(coeffs) if scale else []]        # a zero scale is the zero function
    for d in range(order):
        current = chain[-1]
        step = [a + d * b for a, b in zip(weighted, p_prime)]
        derived = _mul_coeffs([k * c for k, c in enumerate(current)][1:], p_coeffs)
        chain.append([a - b for a, b in
                      zip_longest(derived, _mul_coeffs(current, step), fillvalue=0)])
    return chain


class DerivativeChain:
    """The derivatives of f = scale * sum coeffs[i] t^i / prod (t + s)^e, from
    its integer expansion (``Kernel.expansion`` in :mod:`apery4.apery_forms`),
    to any order asked for per call.

    :meth:`values` applies the product and quotient rule at the point, to
    truncated Taylor series; :meth:`sum` reads the dense integer chain of
    :func:`_quotient_chain`, built only up to the order it sums.  It does
    not depend on the point, so one instance serves every evaluation and
    sum; no method changes what an instance computes.
    """

    __slots__ = ("_spec", "_scale", "_linears", "_chain")

    def __init__(self, coeffs: Sequence[int], scale: Fraction,
                 den_factors: Sequence[tuple[Fraction | int, int]]) -> None:
        self._spec, self._chain = (coeffs, scale, den_factors), None
        # (r, q, e) for each t + q/r = (r t + q) / r, the r^e moved into the scale
        self._linears = [(s.denominator, s.numerator, e) for s, e in den_factors]
        self._scale = scale * prod(r ** e for r, _, e in self._linears)

    def values(self, x: Fraction | int, order: int) -> list[Fraction]:
        """f(x), ..., f^(order)(x) at x = a/b, from f's Taylor series in u,
        t = (a + u)/b, in integers: the numerator's by homogeneous synthetic
        division, times each (r t + q)^-e's binomial series, that of
        (L + r u)^-e with L = r a + q b, made by e geometric divisions; the
        u^k coefficients are scaled by D^k, D = lcm of the L's.  PoleError
        at a pole."""
        _check_order(order)
        a, b = _as_fraction(x).as_integer_ratio()
        coeffs = self._spec[0]
        bases = [r * a + q * b for r, q, _ in self._linears]
        if 0 in bases:
            raise PoleError(f"derivative evaluation at pole t = {_F(a, b)}")
        lcd, deg = lcm(*bases), max(len(coeffs) - 1, 0)
        series = [c * b ** (deg - i) for i, c in enumerate(coeffs)]    # b^deg N((a + u)/b)
        for i in range(min(order + 1, deg)):        # pass i leaves the u^i coefficient
            for k in range(deg - 1, i - 1, -1):
                series[k] += a * series[k + 1]
        series = [c * lcd ** k for k, c in enumerate(series[:order + 1])]
        series += [0] * (order + 1 - len(series))
        top = self._scale.numerator * b ** sum(e for *_, e in self._linears)
        bottom = self._scale.denominator * b ** deg
        for (r, _, e), base in zip(self._linears, bases):
            ratio = r * (lcd // base)
            for _ in range(e):                      # divided by 1 + r u / L, exactly
                for k in range(1, order + 1):
                    series[k] -= ratio * series[k - 1]
            bottom *= base ** e
        values = []
        for d, c in enumerate(series):              # f^(d)(x) = b^d d! [u^d] f
            if d:
                top, bottom = top * b * d, bottom * lcd
            values.append(_F(top * c, bottom))
        return values

    def sum(self, order: int, start: int, stop: int) -> Fraction:
        """Exact sum of f^(order)(v) over the integers start <= v < stop, as
        integer pairs N_order(v) / prod (r v + q)^(e + order) added in a
        balanced tree over reduced denominators (adjacent terms share most
        factors) and normalised once."""
        _check_order(order)
        if self._chain is None or len(self._chain) <= order:
            self._chain = _quotient_chain(*self._spec, order)
        coeffs, pairs = self._chain[order], []
        for v in range(start, stop):
            top, bottom = 0, 1
            for c in reversed(coeffs):
                top = top * v + c
            for r, q, e in self._linears:
                bottom *= (r * v + q) ** (e + order)
            if not bottom:
                raise PoleError(f"derivative evaluation at pole t = {v}")
            pairs.append((top, bottom))
        while len(pairs) > 1:
            pairs = ([_merge(a, b, c, d) for (a, b), (c, d) in zip(pairs[::2], pairs[1::2])]
                     + pairs[len(pairs) - len(pairs) % 2:])
        value, bottom = pairs[0] if pairs else (0, 1)
        return _F(self._scale.numerator * value, self._scale.denominator * bottom)


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")


def _merge(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d over (b/g) d, g = gcd(b, d), unnormalised."""
    g = gcd(b, d)
    b //= g
    return a * (d // g) + c * b, b * d


# ---------------------------------------------------------------------------
# principal parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleExpansion:
    """Principal part at one pole, over its expansion's integer denominator D:
    sum_j numerators[j-1] / (D (t + shift)^j)."""

    shift: int | Fraction
    numerators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.numerators)


@dataclass(frozen=True)
class PartialFractions:
    """A proper rational function as the sum over its poles of principal
    parts, whose integer numerators share one ``denominator``, always reduced
    to the least one.  There is no polynomial part: every kernel of the
    package vanishes at infinity.

    So ``==`` compares values, for terms sorted by shift and with no trailing
    zero numerator, as the block route and the dense test reference leave them.
    """

    terms: tuple[PoleExpansion, ...]
    denominator: int

    def __post_init__(self) -> None:
        if not self.denominator:
            raise ZeroDivisionError("principal parts over a zero denominator")
        g = gcd(self.denominator, *(c for term in self.terms for c in term.numerators))
        g = g if self.denominator > 0 else -g
        if g != 1:
            object.__setattr__(self, "denominator", self.denominator // g)
            object.__setattr__(self, "terms", tuple(
                PoleExpansion(term.shift, tuple(c // g for c in term.numerators))
                for term in self.terms))
