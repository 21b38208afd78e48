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

Each kernel of the package is written once, as rising-factorial blocks at
integer shifts times an integer cofactor polynomial
(:class:`apery4.apery_forms.Kernel`).  The exact forms take their principal
parts straight from the blocks, in integers, and return them as
:class:`PartialFractions` (proper principal parts: integer numerators over
one reduced denominator at integer shifts), never expanding a kernel.  A
:class:`DerivativeChain` holds a kernel's numerator, partly factored, every
shift an integer; it takes derivatives at an integer point by the
product and quotient rule on the linear factors, on Taylor series there,
and builds the dense integer quotient-rule chain for each exact sum over a
range: the route of the numeric series, of the summand oracle and of
zeta(s)'s closure.
:class:`LinearFactorProduct` (a flattened kernel with repeated shifts
merged) and the plain dense :class:`Polynomial` and
:class:`RationalFunction` that its :meth:`~LinearFactorProduct.expand`
returns have no reader in the package and are not exported; they stay only
while the benchmark's layer tracer (``bench/layers.py``) wraps ``expand``
and ``expand_parts``, which it reaches through the class (ROADMAP item 1).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from numbers import Rational

from .errors import DomainError, PoleError, checked

__all__ = [
    "PartialFractions",
    "DerivativeChain",
]

_F = Fraction


class _Value:
    """The shared behaviour of the package's immutable value types.  Each
    names its fields in ``_fields``, holds them in ``__slots__`` and sets
    them in a straight-line ``__init__`` through ``object.__setattr__``;
    assignment is refused, values compare and hash by type and fields, and
    pickle and copy rebuild them through ``__init__``."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    @classmethod
    def _unchecked(cls, *fields: object) -> "_Value":
        """A value of fields that the package built, without ``__init__``'s checks."""
        value = cls.__new__(cls)
        for name, field in zip(cls._fields, fields):
            object.__setattr__(value, name, field)
        return value

# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


class Polynomial(_Value):
    """Immutable dense polynomial over Q, coefficients ascending by degree:
    the plain form :meth:`LinearFactorProduct.expand` returns.  It carries
    no arithmetic and no evaluation."""

    _fields = __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        normalized = [_F(c) for c in coeffs]
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


# ---------------------------------------------------------------------------
# LinearFactorProduct
# ---------------------------------------------------------------------------


class LinearFactorProduct(_Value):
    """scalar * prod_i (t + shift_i)^(exponent_i) with distinct sorted shifts.

    Construction always merges repeated shifts by adding exponents and drops
    exponent 0, so a numerator factor cancels structurally against an equal
    denominator factor.  As a consequence :meth:`expand` produces a rational
    function that is coprime *by construction* — no polynomial gcd needed.
    """

    _fields = __slots__ = ("scalar", "factors")

    def __init__(self, scalar: Fraction, factors: tuple[tuple[Fraction, int], ...]) -> None:
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def of(cls, scalar: Fraction | int,
           factors: Iterable[tuple[Fraction | int, int]] = ()) -> "LinearFactorProduct":
        merged = sorted(_merged_shifts(factors).items())
        ordered = tuple((_F(shift), exponent) for shift, exponent in merged if exponent)
        return cls(_F(scalar), ordered)

    def expand_parts(self) -> tuple[Polynomial, tuple[tuple[Fraction, int], ...]]:
        """(numerator polynomial including scalar, denominator factor list).

        The denominator is kept factored as (shift, positive exponent) pairs;
        the numerator is multiplied out in integers and scaled once.
        """
        coeffs, lead = _linear_product((s, e) for s, e in self.factors if e > 0)
        scale = self.scalar / lead
        return (Polynomial(c * scale for c in coeffs),
                tuple((s, -e) for s, e in self.factors if e < 0))

    def expand(self) -> "RationalFunction":
        """Expand to a RationalFunction, coprime by construction."""
        num, den_factors = self.expand_parts()
        coeffs, lead = _linear_product(den_factors if not num.is_zero else ())
        return RationalFunction(num, Polynomial(_F(c, lead) for c in coeffs))


def _merged_shifts(factors: Iterable[tuple[Fraction | int, int]]) -> dict[Fraction | int, int]:
    """The exponents of equal shifts added.  A kernel's shifts are ints; the
    dense :class:`LinearFactorProduct` also passes Fractions, and int and
    Fraction keys of equal value hash alike."""
    merged: dict[Fraction | int, int] = {}
    for shift, exponent in factors:
        merged[shift] = merged.get(shift, 0) + exponent
    return merged


def _linear_product(factors: Iterable[tuple[Fraction | int, int]]) -> tuple[list[int], int]:
    """(coefficients of prod (r t + q)^e, prod r^e) for shifts q/r, e >= 0: so
    prod (t + q/r)^e is the integer coefficient list over that one integer.
    A kernel's shifts are ints, r = 1; the dense :class:`LinearFactorProduct`
    may pass Fractions."""
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


class RationalFunction(_Value):
    """numerator / denominator, the dense form that
    :meth:`LinearFactorProduct.expand` returns: coprime by construction,
    with a monic denominator."""

    _fields = __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial) -> None:
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)


# ---------------------------------------------------------------------------
# derivative chains
# ---------------------------------------------------------------------------


def _quotient_chain(coeffs: Sequence[int], shifts: Sequence[tuple[int, int]],
                    order: int) -> list[list[int]]:
    """[N_0..N_order], f^(d) = K N_d / prod (t + q)^(e + d), for
    f = K sum coeffs[i] t^i / prod (t + q)^e over integer shifts q.  With
    P = prod (t + q) and W = sum e P/(t + q), one quotient-rule step sends
    N_d to N_d' P - N_d (W + d P'): integers throughout, no gcd.
    """
    p_coeffs, weighted = [1], []
    for q, e in shifts:
        # (P, W) -> (P l, W l + e P) for the next factor l = t + q
        weighted = [w + e * c for w, c in zip(_times_linear(weighted, q, 1), p_coeffs)]
        p_coeffs = _times_linear(p_coeffs, q, 1)
    p_prime = [k * c for k, c in enumerate(p_coeffs)][1:]
    chain = [list(coeffs)]
    for d in range(order):
        current = chain[-1]
        step = [a + d * b for a, b in zip(weighted, p_prime)]
        derived = _mul_coeffs([k * c for k, c in enumerate(current)][1:], p_coeffs)
        chain.append([a - b for a, b in
                      zip_longest(derived, _mul_coeffs(current, step), fillvalue=0)])
    return chain


class DerivativeChain:
    """The derivatives of f = scale * sum coeffs[i] t^i * prod (t + s)^e, to
    any order asked for per call, at integer points.

    The (s, e) pairs follow ``Kernel.factors`` (:mod:`apery4.apery_forms`):
    every shift s an int (DomainError otherwise when the chain is built, as
    for a point that is not an integer when a method is called), e > 0 a
    numerator factor and e < 0 a pole of order -e, over int ``coeffs`` and a
    rational ``scale``.  The
    summand oracle passes a kernel's cofactor and factors, the numeric series
    its integer expansion (``Kernel.expansion``), poles alone.
    :meth:`numerators` applies the product and quotient rule on the linear
    factors, on truncated Taylor series at the point, and builds no
    polynomial; :meth:`sum` multiplies the numerator factors out and builds
    the dense integer chain of :func:`_quotient_chain` up to the order it
    sums, and keeps nothing.
    """

    __slots__ = ("_coeffs", "_scale", "_factors", "_shifts")

    def __init__(self, coeffs: Sequence[int], scale: Fraction,
                 factors: Iterable[tuple[int, int]]) -> None:
        factors = list(checked(factors, "factors", kind=Iterable))
        for factor in factors:
            checked(len(checked(factor, "factor", kind=tuple)), "factor size", 2, 2)
            checked(factor[0], "shift"), checked(factor[1], "exponent")
        self._build([checked(c, "coefficient") for c in checked(coeffs, "coeffs", kind=Sequence)],
                    checked(scale, "scale", kind=Rational), factors)

    @classmethod
    def _of(cls, coeffs: Sequence[int], scale: Fraction,
            factors: Iterable[tuple[int, int]]) -> "DerivativeChain":
        """The chain of arguments that the package built, unchecked."""
        chain = cls.__new__(cls)
        chain._build(coeffs, scale, factors)
        return chain

    def _build(self, coeffs: Sequence[int], scale: Fraction,
               factors: Iterable[tuple[int, int]]) -> None:
        self._coeffs, self._scale = coeffs, scale
        self._factors, self._shifts = [], []
        for s, e in factors:
            if e > 0:
                self._factors.append((s, e))
            elif e < 0:
                self._shifts.append((s, -e))

    def numerators(self, x: int, order: int) -> tuple[list[int], int]:
        """([N_0, ..., N_order], D) with f^(d)(x) = N_d / D, from f's Taylor
        series in u = t - x, in integers: the coefficients' by synthetic
        division, times each (t + q)^e = (L + u)^e, L = x + q, by e steps of
        the series, then divided by each (t + q)^-e = (L + u)^-e by e
        geometric divisions; the u^k
        coefficients are scaled by C^k, C = lcm of the poles' L's, so D
        carries C^order.  PoleError at a pole."""
        checked(order, "order", 0)
        x, coeffs = _integer(checked(x, "point", kind=Rational), "point"), self._coeffs
        bases = [x + q for q, _ in self._shifts]
        if 0 in bases:
            raise PoleError(f"derivative evaluation at pole t = {x}")
        lcd, deg = lcm(*bases), max(len(coeffs) - 1, 0)
        series = list(coeffs)
        for i in range(min(order + 1, deg)):        # pass i leaves the u^i coefficient
            for k in range(deg - 1, i - 1, -1):
                series[k] += x * series[k + 1]
        series = [c * lcd ** k for k, c in enumerate(series[:order + 1])]
        series += [0] * (order + 1 - len(series))
        top, bottom = self._scale.numerator, self._scale.denominator
        for q, e in self._factors:
            base = x + q
            for _ in range(e):                      # times L + C (u / C)
                for k in range(order, 0, -1):
                    series[k] = base * series[k] + lcd * series[k - 1]
                series[0] *= base
        for (_, e), base in zip(self._shifts, bases):
            ratio = lcd // base
            for _ in range(e):                      # divided by 1 + u / L, exactly
                for k in range(1, order + 1):
                    series[k] -= ratio * series[k - 1]
            bottom *= base ** e
        numerators = []
        for d, c in enumerate(series):              # f^(d)(x) = d! [u^d] f
            numerators.append(top * c * lcd ** (order - d))
            top *= d + 1
        return numerators, bottom * lcd ** order

    def sum(self, order: int, start: int, stop: int) -> Fraction:
        """Exact sum of f^(order)(v) over the integers start <= v < stop, as
        integer pairs N_order(v) / prod (v + q)^(e + order) added in a
        balanced tree over reduced denominators (adjacent terms share most
        factors) and normalised once."""
        checked(order, "order", 0)
        start, stop = (_integer(checked(v, "point", kind=Rational), "point") for v in (start, stop))
        product, _ = _linear_product(self._factors)
        coeffs = _quotient_chain(_mul_coeffs(product, self._coeffs), self._shifts, order)[order]
        pairs = []
        for v in range(start, stop):
            top, bottom = 0, 1
            for c in reversed(coeffs):
                top = top * v + c
            for q, e in self._shifts:
                bottom *= (v + q) ** (e + order)
            if not bottom:
                raise PoleError(f"derivative evaluation at pole t = {v}")
            pairs.append((top, bottom))
        while len(pairs) > 1:
            pairs = ([_merge(a, b, c, d) for (a, b), (c, d) in zip(pairs[::2], pairs[1::2])]
                     + pairs[len(pairs) - len(pairs) % 2:])
        value, bottom = pairs[0] if pairs else (0, 1)
        return _F(self._scale.numerator * value, self._scale.denominator * bottom)


def _integer(value: Fraction | int, what: str) -> int:
    """A rational ``value`` as an int; DomainError if it is not an integer."""
    q, r = value.as_integer_ratio()
    if r != 1:
        raise DomainError(f"{what} must be an integer, got {value}")
    return q


def _merge(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d over (b/g) d, g = gcd(b, d), unnormalised."""
    g = gcd(b, d)
    b //= g
    return a * (d // g) + c * b, b * d


# ---------------------------------------------------------------------------
# principal parts
# ---------------------------------------------------------------------------


class PartialFractions(_Value):
    """A proper rational function as the sum over its poles of principal
    parts over one integer ``denominator`` D: ``terms`` holds (shift,
    numerators) pairs, sum_j numerators[j-1] / (D (t + shift)^j) each.
    There is no polynomial part: every kernel of the package vanishes at
    infinity.

    Each term is a tuple of an int shift and a tuple of int numerators
    (DomainError otherwise), two items and at least one numerator, and the
    denominator a positive int (RangeError otherwise).  Its producer
    leaves it reduced, over the least positive denominator
    (``_principal_parts`` in :mod:`apery4.apery_forms`, the one place that
    reduces); so ``==`` compares values, for terms sorted by shift and with
    no trailing zero numerator, as the block route and the dense test
    reference leave them.
    """

    _fields = __slots__ = ("terms", "denominator")

    def __init__(self, terms: tuple[tuple[int, tuple[int, ...]], ...], denominator: int) -> None:
        for term in checked(terms, "terms", kind=tuple):
            checked(len(checked(term, "term", kind=tuple)), "term size", 2, 2)
            checked(term[0], "shift")
            for c in checked(term[1], "numerators", kind=tuple):
                checked(c, "numerator")
            checked(len(term[1]), "numerator count", 1)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "denominator", checked(denominator, "denominator", 1))
