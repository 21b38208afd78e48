"""Linear forms in zeta values, exact tail sums, and certified decimals.

The package tracks numbers of the shape

    c0 + c2*zeta(2) + c3*zeta(3) + c4*zeta(4) + c5*zeta(5)

with exact rational coefficients, treating the zeta values as free basis
symbols (no relation such as zeta(2)^2 = 5/2 zeta(4) is ever applied by the
arithmetic — products of forms are not defined).  Equality of forms is
componentwise.

One exact summation produces such forms: :func:`derivative_tail_sum`,
sum_{v >= start} f^(d)(v) for a proper rational f given by its principal
parts (integer numerators over one denominator, integer pole shifts).  It
uses d/dt^d of (t+p)^(-j) = (-1)^d (j)_d (t+p)^(-j-d) termwise and writes
each tail sum_{v >= start} (v+p)^(-s) as zeta(s) minus a harmonic prefix,
accumulating every coordinate in integers over one denominator.

For float-side cross-checks, :func:`zeta_value` computes zeta(s) to any
requested number of digits by Euler–Maclaurin summation carried out entirely
in exact rational arithmetic (Bernoulli numbers come from the integer
tangent-number triangle), returning a :class:`FixedPointNumber` that carries
a proven error bound rather than a bare float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import NonProperError, PoleInRangeError
from .exact_arith import factorial, harmonic, pochhammer
from .polyrat import PartialFractions

__all__ = [
    "ZETA_ORDERS",
    "ZetaLinearForm",
    "derivative_tail_sum",
    "bernoulli_even",
    "zeta_value",
    "FixedPointNumber",
    "evaluate_decimal",
]

_F = Fraction
_ZERO = _F(0)

ZETA_ORDERS = (2, 3, 4, 5)

_JSON_KEYS = {2: "z2", 3: "z3", 4: "z4", 5: "z5"}


@dataclass(frozen=True)
class ZetaLinearForm:
    """c0 + sum_s coefficient[s] * zeta(s) for s in ZETA_ORDERS, all exact."""

    constant: Fraction
    zeta_coefficients: tuple[Fraction, Fraction, Fraction, Fraction]

    @classmethod
    def from_constant(cls, value: Fraction | int) -> "ZetaLinearForm":
        return cls(_F(value), (_ZERO, _ZERO, _ZERO, _ZERO))

    @classmethod
    def zeta_term(cls, order: int, coefficient: Fraction | int = 1) -> "ZetaLinearForm":
        if order not in ZETA_ORDERS:
            raise ValueError(f"zeta({order}) is outside the tracked basis {ZETA_ORDERS}")
        coeffs = [_ZERO] * len(ZETA_ORDERS)
        coeffs[ZETA_ORDERS.index(order)] = _F(coefficient)
        return cls(_ZERO, tuple(coeffs))

    def coefficient(self, order: int) -> Fraction:
        """The coefficient of zeta(order)."""
        if order not in ZETA_ORDERS:
            raise ValueError(f"zeta({order}) is outside the tracked basis {ZETA_ORDERS}")
        return self.zeta_coefficients[ZETA_ORDERS.index(order)]

    # -- linear arithmetic ----------------------------------------------------

    def __add__(self, other: "ZetaLinearForm") -> "ZetaLinearForm":
        return ZetaLinearForm(
            self.constant + other.constant,
            tuple(a + b for a, b in zip(self.zeta_coefficients,
                                        other.zeta_coefficients)))

    def __sub__(self, other: "ZetaLinearForm") -> "ZetaLinearForm":
        return self + (-other)

    def __neg__(self) -> "ZetaLinearForm":
        return ZetaLinearForm(-self.constant,
                              tuple(-c for c in self.zeta_coefficients))

    def __mul__(self, scalar: Fraction | int) -> "ZetaLinearForm":
        s = _F(scalar)
        return ZetaLinearForm(self.constant * s,
                              tuple(c * s for c in self.zeta_coefficients))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return self.constant == 0 and all(c == 0 for c in self.zeta_coefficients)

    def is_pure_weight4(self) -> bool:
        """True when only the constant and the zeta(4) coefficient survive."""
        return all(self.coefficient(s) == 0 for s in (2, 3, 5))

    # -- serialization ----------------------------------------------------------

    def to_mapping(self) -> dict[str, str]:
        """Canonical mapping {"c0": "p/q", "z2": ..., ...}; zero entries omitted."""
        out: dict[str, str] = {}
        if self.constant != 0:
            out["c0"] = str(self.constant)
        for order in ZETA_ORDERS:
            c = self.coefficient(order)
            if c != 0:
                out[_JSON_KEYS[order]] = str(c)
        return out

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ZetaLinearForm":
        constant = _F(mapping.get("c0", "0"))
        coeffs = tuple(_F(mapping.get(_JSON_KEYS[s], "0")) for s in ZETA_ORDERS)
        return cls(constant, coeffs)

    def __str__(self) -> str:
        parts = []
        if self.constant != 0 or self.is_zero:
            parts.append(str(self.constant))
        for order in ZETA_ORDERS:
            c = self.coefficient(order)
            if c != 0:
                sign = "+" if c > 0 else "-"
                mag = abs(c)
                body = f"zeta({order})" if mag == 1 else f"{mag}*zeta({order})"
                parts.append(f"{sign} {body}" if parts else
                             (body if c > 0 else f"-{body}"))
        return " ".join(parts)


# ---------------------------------------------------------------------------
# exact tail sums
# ---------------------------------------------------------------------------


def derivative_tail_sum(expansion: PartialFractions, order: int, start: int) -> ZetaLinearForm:
    """sum_{v >= start} f^(order)(v) for f given by its partial fractions.

    Termwise, d^order/dt^order (t+p)^(-j) = w (t+p)^(-s) with
    w = (-1)^order (j)_order and s = j + order, and the tail of (v+p)^(-s) is
    zeta(s) - S_s(p+start-1).  So each numerator c adds w c to the zeta(s)
    coordinate and -w c S_s(p+start-1) to the constant, both accumulated in
    integers: over the expansion's denominator, times lcm(1..top)^5 for the
    constant (every S_s(u), u <= top, s <= 5, has a denominator dividing it).
    Supported orders are 1 and 2 (the only ones the zeta(4) bookkeeping needs).

    Raises
    ------
    NonProperError    if the expansion carries a nonzero polynomial part,
    PoleInRangeError  if some pole -p lies in [start, infinity),
    ValueError        for orders outside {1, 2}, non-integer pole shifts, or
                      a nonzero numerator whose zeta(j + order) lies outside
                      the basis.
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    if not expansion.polynomial_part.is_zero:
        raise NonProperError(
            "tail sums need a proper rational function; polynomial part is "
            f"{expansion.polynomial_part}")
    top = max((int(term.shift) + start - 1 for term in expansion.terms), default=0)
    unit = lcm(*range(1, top + 1)) ** ZETA_ORDERS[-1]
    constant, zetas = 0, [0] * len(ZETA_ORDERS)
    for term in expansion.terms:
        if term.shift.denominator != 1:
            raise ValueError(f"pole shift {term.shift} is not an integer")
        p = int(term.shift)
        if -p >= start:
            raise PoleInRangeError(
                f"pole at t = {-p} lies inside the summation range [{start}, oo)")
        for j, c in enumerate(term.numerators, start=1):
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


# ---------------------------------------------------------------------------
# Bernoulli numbers via the tangent-number triangle
# ---------------------------------------------------------------------------

_TANGENT: list[int] = []


def _tangent_numbers(count: int) -> list[int]:
    """T_1..T_count (tangent numbers), by the classic integer triangle."""
    t = [0] * (count + 1)
    t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_even(index: int) -> Fraction:
    """The Bernoulli number B_index for even index >= 2, exactly.

    Via tangent numbers: B_{2k} = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)).
    """
    if index < 2 or index % 2:
        raise ValueError(f"bernoulli_even needs an even index >= 2, got {index}")
    k = index // 2
    global _TANGENT
    if k > len(_TANGENT):
        _TANGENT = _tangent_numbers(k + 8)
    four_k = 4**k
    return _F((-1) ** (k - 1) * 2 * k * _TANGENT[k - 1],
              four_k * (four_k - 1))


# ---------------------------------------------------------------------------
# fixed-point numbers with tracked error
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointNumber:
    """mantissa * 10^(-scale), plus an exact bound on |true - stored|."""

    mantissa: int
    scale: int
    error_bound: Fraction

    @classmethod
    def from_fraction(cls, value: Fraction, scale: int,
                      inherent_error: Fraction = _ZERO) -> "FixedPointNumber":
        """Round an exact value (with optional prior error) to fixed point."""
        shifted = value * 10**scale
        mantissa = (shifted.numerator * 2 + shifted.denominator) // (2 * shifted.denominator)
        rounding = abs(_F(mantissa, 10**scale) - value)
        return cls(mantissa, scale, rounding + inherent_error)

    def value(self) -> Fraction:
        return _F(self.mantissa, 10**self.scale)

    def decimal(self) -> str:
        digits = str(abs(self.mantissa)).rjust(self.scale + 1, "0")
        sign = "-" if self.mantissa < 0 else ""
        if self.scale == 0:
            return f"{sign}{digits}"
        return f"{sign}{digits[:-self.scale]}.{digits[-self.scale:]}"

    def agrees_with(self, other: "FixedPointNumber", significant_digits: int) -> bool:
        """True when the two values agree to ``significant_digits`` within bounds."""
        va, vb = self.value(), other.value()
        diff = abs(va - vb)
        slack = self.error_bound + other.error_bound
        magnitude = max(abs(va), abs(vb))
        return diff <= slack + magnitude * _F(1, 10**significant_digits)

    def __str__(self) -> str:
        return self.decimal()


# ---------------------------------------------------------------------------
# zeta values by exact Euler–Maclaurin
# ---------------------------------------------------------------------------

_ZETA_CACHE: dict[tuple[int, int], FixedPointNumber] = {}


def _euler_maclaurin_bound(s: int, cutoff: int, depth: int) -> Fraction:
    """Safe bound on the remainder after the depth-th correction term.

    The remainder is at most the magnitude of the first omitted term;
    |B_{2k}| / (2k)! < 4 / (2 pi)^(2k) < 4 / 39^k gives the fully rational
    envelope 4 * (s)_{2*depth+1} / (39^(depth+1) * cutoff^(s+2*depth+1)).
    """
    return _F(4 * pochhammer(s, 2 * depth + 1),
              39 ** (depth + 1) * cutoff ** (s + 2 * depth + 1))


def zeta_value(s: int, digits: int) -> FixedPointNumber:
    """zeta(s) to ``digits`` decimal places with a certified error bound.

    Euler–Maclaurin with an exact-rational tail:

        zeta(s) = sum_{k<N} k^(-s) + N^(-s)/2 + N^(1-s)/(s-1)
                  + sum_{i=1..M} B_{2i}/(2i)! * (s)_{2i-1} * N^(1-s-2i) + R,

    with |R| bounded by :func:`_euler_maclaurin_bound`.  N and M are chosen
    so the bound plus rounding is below 10^(-digits); everything is computed
    in Fractions, so the bound is a theorem, not an estimate.
    """
    if s < 2:
        raise ValueError(f"zeta_value needs s >= 2, got {s}")
    if digits < 1:
        raise ValueError(f"zeta_value needs digits >= 1, got {digits}")
    key = (s, digits)
    cached = _ZETA_CACHE.get(key)
    if cached is not None:
        return cached

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

    result = FixedPointNumber.from_fraction(total, digits, inherent_error=bound)
    _ZETA_CACHE[key] = result
    return result


def evaluate_decimal(form: ZetaLinearForm, digits: int) -> FixedPointNumber:
    """Certified decimal value of a linear form, |error| < 10^(-digits).

    The zeta basis values are taken with enough guard digits to absorb the
    size of the rational coefficients (which grow like binomial^4), so the
    stated bound survives the linear combination.
    """
    if digits < 1:
        raise ValueError(f"evaluate_decimal needs digits >= 1, got {digits}")
    size = sum(abs(form.coefficient(s)) for s in ZETA_ORDERS)
    guard = 8 + len(str(1 + int(size)))
    exact = form.constant
    error = _ZERO
    for s in ZETA_ORDERS:
        c = form.coefficient(s)
        if c == 0:
            continue
        z = zeta_value(s, digits + guard)
        exact += c * z.value()
        error += abs(c) * z.error_bound
    return FixedPointNumber.from_fraction(exact, digits, inherent_error=error)
