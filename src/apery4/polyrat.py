"""Dense exact polynomials, factored linear products, rational functions and
partial fractions over the rationals.

Conventions
-----------
* Polynomials are stored densely as tuples of Fractions in ascending degree
  order; the zero polynomial is the empty tuple with degree -1.
* Linear factors are written (t + shift): a *shift* p corresponds to the root
  t = -p.  A partial-fraction term "A_j / (t + p)^j" is keyed by the shift p,
  never by the root.
* Everything is exact rational arithmetic; nothing here touches floats.

Each kernel of the package is written once, as rising-factorial blocks
(see :mod:`apery4.apery_forms`); :class:`LinearFactorProduct` is its
flattened form, with repeated shifts merged.  The exact forms take their
principal parts straight from the blocks, in integers, and return them as
:class:`PartialFractions` (integer numerators over one reduced denominator),
never expanding a kernel.  Dense expansion, in integers with one scalar,
serves the independent oracles.  A :class:`DerivativeChain` is a kernel's
integer quotient-rule chain, built once from that expansion for derivative
values at any point, exact sums over a range and sign proofs on a ray.
:func:`partial_fractions` is the dense
reference decomposition the tests compare the block route against.  It
decomposes an expanded rational function over caller-supplied pole
candidates, then re-multiplies its answer and compares against the input
(:class:`~apery4.errors.ReconstructionError` on mismatch), so a returned
expansion is certified, not merely computed; it converts its answer to
integers over one denominator at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import FactorizationError, PoleError, ReconstructionError

__all__ = [
    "Polynomial",
    "LinearFactorProduct",
    "RationalFunction",
    "PoleExpansion",
    "PartialFractions",
    "partial_fractions",
    "DerivativeChain",
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
        return Polynomial(_mul_coeffs(self._coeffs, other._coeffs))

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

    def derivative_values_at(self, x: Fraction | int, order: int) -> list[Fraction]:
        """[f(x), f'(x), ..., f^(order)(x)] via the factored quotient rule."""
        return DerivativeChain.of(self, order).values(x)


def _linear_product(factors: Iterable[tuple[Fraction, int]]) -> tuple[list[int], int]:
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
    """numerator / denominator with a monic denominator: the plain input of
    :func:`partial_fractions`.

    Numerator and denominator need not be coprime (they are, structurally,
    for :meth:`LinearFactorProduct.expand`); the constructor only enforces
    a monic nonzero denominator.
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


def _quotient_chain(coeffs: Sequence[int], scale: Fraction,
                    den_factors: Sequence[tuple[Fraction, int]],
                    order: int) -> tuple[Fraction, list[tuple[int, int, int]], list[list[int]]]:
    """(K, [(r, q, e)], [N_0..N_order]), f^(d) = K N_d / prod (r t + q)^(e + d).

    f = scale * sum coeffs[i] t^i / prod (t + q/r)^e.  With P = prod (r t + q)
    and W = sum e r P/(r t + q), one quotient-rule step sends N_d to
    N_d' P - N_d (W + d P'): integers throughout, no gcd.
    """
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    linears, p_coeffs, weighted = [], [1], []
    for shift, e in den_factors:
        q, r = _as_fraction(shift).as_integer_ratio()
        linears.append((r, q, e))
        scale *= r ** e
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
    return scale, linears, chain


def _term(coeffs: list[int], linears: list[tuple[int, int, int]],
          a: int, b: int, d: int) -> tuple[int, int]:
    """N(a/b) / prod (r a/b + q)^(e + d) as an unreduced integer pair."""
    top, power = 0, 1
    for c in reversed(coeffs):              # top = b^len N(a/b), power = b^len
        power *= b
        top = top * a + c * power
    bottom, exponents = 1, 0
    for r, q, e in linears:                 # r t + q = (r a + q b) / b at t = a/b
        bottom *= (r * a + q * b) ** (e + d)
        exponents += e + d
    if not bottom:
        raise PoleError(f"derivative evaluation at pole t = {_F(a, b)}")
    return top * b ** exponents, power * bottom


class DerivativeChain:
    """f, f', ..., f^(order) of f = numerator / prod (t + s)^e as the integer
    chain of :func:`_quotient_chain`: it does not depend on the point, so one
    instance serves every evaluation, sum and sign proof; no method changes it.
    """

    __slots__ = ("_scale", "_linears", "_chain")

    def __init__(self, numerator: Polynomial, den_factors: Sequence[tuple[Fraction, int]],
                 order: int) -> None:
        clear = lcm(*(c.denominator for c in numerator.coefficients))
        self._scale, self._linears, self._chain = _quotient_chain(
            [c.numerator * (clear // c.denominator) for c in numerator.coefficients],
            _F(1, clear), den_factors, order)

    @classmethod
    def of(cls, product: LinearFactorProduct, order: int) -> "DerivativeChain":
        """The chain of ``product`` from its integer expansion, no Polynomial."""
        chain = cls.__new__(cls)
        chain._scale, chain._linears, chain._chain = _quotient_chain(
            *product._integer_parts(), order)
        return chain

    @property
    def order(self) -> int:
        return len(self._chain) - 1

    def _numerator(self, order: int) -> list[int]:
        if not 0 <= order <= self.order:
            raise ValueError(f"derivative order {order} outside 0..{self.order}")
        return self._chain[order]

    def values(self, x: Fraction | int) -> list[Fraction]:
        """f(x), ..., f^(order)(x), each N_d evaluated homogeneously at x = a/b
        so that only the returned values are normalised; PoleError at a pole."""
        a, b = _as_fraction(x).as_integer_ratio()
        scale, values = self._scale, []
        for d, current in enumerate(self._chain):
            top, bottom = _term(current, self._linears, a, b, d)
            values.append(_F(scale.numerator * top, scale.denominator * bottom))
        return values

    def sum(self, order: int, start: int, stop: int) -> Fraction:
        """Exact sum of f^(order)(v) over the integers start <= v < stop, as
        integer pairs added in a balanced tree over reduced denominators
        (adjacent terms share most factors) and normalised once."""
        coeffs = self._numerator(order)
        pairs = [_term(coeffs, self._linears, v, 1, order) for v in range(start, stop)]
        while len(pairs) > 1:
            pairs = ([_merge(a, b, c, d) for (a, b), (c, d) in zip(pairs[::2], pairs[1::2])]
                     + pairs[len(pairs) - len(pairs) % 2:])
        value, bottom = pairs[0] if pairs else (0, 1)
        return _F(self._scale.numerator * value, self._scale.denominator * bottom)

    def keeps_sign(self, order: int, start: int) -> bool:
        """Whether f^(order) provably keeps one sign on the ray t >= start.

        ``start`` must lie beyond every pole (ValueError otherwise), so f^(order)
        has the sign of K N_order(start + u), u >= 0.  If that Taylor shift has no
        sign change among its integer coefficients, it has no positive root
        (Descartes' rule).  False means no proof, not a proven sign change.
        """
        coeffs = list(self._numerator(order))      # shifted in a copy
        if any(r * start + q <= 0 for r, q, _ in self._linears):
            raise ValueError(f"t = {start} does not lie beyond every pole")
        for i in range(len(coeffs) - 1):
            for k in range(len(coeffs) - 2, i - 1, -1):
                coeffs[k] += start * coeffs[k + 1]
        return len({c > 0 for c in coeffs if c}) <= 1


def _merge(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d over (b/g) d, g = gcd(b, d), unnormalised."""
    g = gcd(b, d)
    b //= g
    return a * (d // g) + c * b, b * d


def factored_derivative_values(numerator: Polynomial,
                               den_factors: Sequence[tuple[Fraction, int]],
                               x: Fraction | int, order: int) -> list[Fraction]:
    """Evaluate f, f', ..., f^(order) at x for f = numerator / prod (t+s_i)^{e_i}
    through a one-off :class:`DerivativeChain`."""
    return DerivativeChain(numerator, den_factors, order).values(x)


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleExpansion:
    """Principal part at one pole, over its expansion's integer denominator D:
    sum_j numerators[j-1] / (D (t + shift)^j)."""

    shift: Fraction
    numerators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.numerators)


@dataclass(frozen=True)
class PartialFractions:
    """polynomial_part + sum over poles of principal parts, whose integer
    numerators share one ``denominator``, always reduced to the least one.

    So ``==`` compares values, for terms sorted by shift and with no trailing
    zero numerator, as both producers leave them.
    """

    polynomial_part: Polynomial
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
    terms: list[tuple[Fraction, list[Fraction]]] = []
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
        # a numerator sharing the factor leaves zero top coefficients: trim them
        coefficients = [series[e - j] for j in range(1, e + 1)]
        while coefficients and coefficients[-1] == 0:
            coefficients.pop()
        if coefficients:
            terms.append((p, coefficients))

    # always-on certification: rebuild the numerator over f's own denominator
    # as poly_part * D + sum_{p,j} A_{p,j} D / (t+p)^j (every division exact)
    rebuilt = poly_part * f.denominator
    for p, coefficients in terms:
        quotient = f.denominator
        for coeff in coefficients:
            quotient, rem = quotient.div_linear(-p)
            if rem != 0:
                raise ReconstructionError(f"common denominator not divisible by (t + {p})")
            rebuilt = rebuilt + quotient * coeff
    if rebuilt != f.numerator:
        raise ReconstructionError(
            "partial fraction expansion failed to reproduce its input")
    # the answer as integers over the lcm of its coefficient denominators
    common = lcm(*(c.denominator for _, coefficients in terms for c in coefficients))
    return PartialFractions(poly_part, tuple(
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
