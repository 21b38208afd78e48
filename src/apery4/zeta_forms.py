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
read off integer rows of prefix sums, accumulating every coordinate in
integers over one denominator.

For float-side cross-checks, :func:`zeta_value` computes zeta(s) to any
requested number of digits by Euler–Maclaurin summation, exact throughout:
the remainder after M corrections at cutoff N is below
4 (s)_{2M+1} / (39^(M+1) N^(s+2M+1)); the head is read off the integer
power-sum rows that the tails read, and the boundary and Bernoulli terms
come from :func:`_closure`, the one Euler–Maclaurin closure, which both
numeric sides also use.  It returns a :class:`FixedPointNumber` that
carries a proven error bound rather than a bare float.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm
from numbers import Rational

from .errors import DomainError, PoleInRangeError, RangeError, checked
from .exact_arith import _power_sums
from .polyrat import DerivativeChain, PartialFractions, _Value

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


class ZetaLinearForm(_Value):
    """c0 + sum_s coefficient[s] * zeta(s) for s in ZETA_ORDERS, all exact."""

    _fields = __slots__ = ("constant", "zeta_coefficients")

    def __init__(self, constant: Fraction,
                 zeta_coefficients: tuple[Fraction, Fraction, Fraction, Fraction]) -> None:
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "zeta_coefficients", zeta_coefficients)

    @classmethod
    def from_constant(cls, value: Fraction | int) -> "ZetaLinearForm":
        return cls(_F(checked(value, "value", kind=Rational)), (_ZERO, _ZERO, _ZERO, _ZERO))

    @classmethod
    def zeta_term(cls, order: int, coefficient: Fraction | int = 1) -> "ZetaLinearForm":
        """``coefficient`` * zeta(``order``), an order of ZETA_ORDERS."""
        coeffs = [_ZERO] * len(ZETA_ORDERS)
        value = _F(checked(coefficient, "coefficient", kind=Rational))
        coeffs[ZETA_ORDERS.index(checked(order, "order", 2, 5))] = value
        return cls(_ZERO, tuple(coeffs))

    def coefficient(self, order: int) -> Fraction:
        """The coefficient of zeta(order), an order of ZETA_ORDERS."""
        return self.zeta_coefficients[ZETA_ORDERS.index(checked(order, "order", 2, 5))]

    # -- linear arithmetic ----------------------------------------------------

    def __add__(self, other: "ZetaLinearForm") -> "ZetaLinearForm":
        if not isinstance(other, ZetaLinearForm):
            return NotImplemented
        return ZetaLinearForm(
            self.constant + other.constant,
            tuple(a + b for a, b in zip(self.zeta_coefficients,
                                        other.zeta_coefficients)))

    def __sub__(self, other: "ZetaLinearForm") -> "ZetaLinearForm":
        if not isinstance(other, ZetaLinearForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ZetaLinearForm":
        return ZetaLinearForm(-self.constant,
                              tuple(-c for c in self.zeta_coefficients))

    def __mul__(self, scalar: Fraction | int) -> "ZetaLinearForm":
        if isinstance(scalar, bool) or not isinstance(scalar, Rational):
            return NotImplemented
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
        for order, c in zip(ZETA_ORDERS, self.zeta_coefficients):
            if c != 0:
                out[_JSON_KEYS[order]] = str(c)
        return out

    def __str__(self) -> str:
        parts = []
        if self.constant != 0 or self.is_zero:
            parts.append(str(self.constant))
        for order, c in zip(ZETA_ORDERS, self.zeta_coefficients):
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


def derivative_tail_sum(expansion: PartialFractions, order: int, start: int,
                        weight: Fraction | int = 1) -> ZetaLinearForm:
    """``weight`` * sum_{v >= start} f^(order)(v) for a proper f given by its
    principal parts.

    Termwise, d^order/dt^order (t+p)^(-j) = w (t+p)^(-s) with
    w = (-1)^order (j)_order (-j, or j(j+1)) and s = j + order, and the tail
    of (v+p)^(-s) is zeta(s) - S_s(p+start-1).  So the zeta(s) coordinate is
    w times the sum of the numerators c of (t+p)^-j, and the constant is -w times
    their sum weighted by S_s(p+start-1), both in integers: over the
    expansion's denominator, times unit = L^5, L = lcm(1..top), for the
    constant.  Every S_s(u), u <= top, s <= 5, has a denominator dividing
    L^s, so the weighted sum of each s gathers c L^s S_s(u), read off the
    shared integer rows of :func:`~apery4.exact_arith._power_sums`, and is
    brought over unit by L^(5-s) once.  ``weight`` joins those integer sums: each
    nonzero coordinate is built as one Fraction, each zero is the shared zero.
    Supported orders are 1 and 2 (the only ones the zeta(4) bookkeeping needs).

    Raises
    ------
    PoleInRangeError  if some pole -p lies in [start, infinity),
    RangeError        for orders outside {1, 2},
    DomainError       for a nonzero numerator whose zeta(j + order) lies
                      outside the basis.
    """
    checked(expansion, "expansion", kind=PartialFractions)
    checked(order, "order", 1, 2)
    checked(weight, "weight", kind=Rational)
    checked(start, "start")
    top = max((shift + start - 1 for shift, _ in expansion.terms), default=0)
    highest = ZETA_ORDERS[-1]
    scale, rows = _power_sums(top, range(order + 1, highest + 1))
    sums, dots = [0] * (highest + 1), [0] * (highest + 1)     # indexed by s
    for p, numerators in expansion.terms:
        if -p >= start:
            raise PoleInRangeError(
                f"pole at t = {-p} lies inside the summation range [{start}, oo)")
        index = p + start - 1
        for s, c in enumerate(numerators, start=order + 1):
            if c:
                if s > highest:
                    raise DomainError(f"zeta({s}) is outside the tracked basis {ZETA_ORDERS}")
                sums[s] += c
                dots[s] += c * rows[s][index]
    num, den = weight.numerator, weight.denominator * expansion.denominator
    weights = {s: num * (-(s - 1) if order == 1 else (s - 2) * (s - 1)) for s in ZETA_ORDERS}
    constant = -sum(weights[s] * dots[s] * scale ** (highest - s) for s in ZETA_ORDERS if dots[s])
    return ZetaLinearForm(_F(constant, den * scale ** highest) if constant else _ZERO,
                          tuple(_F(weights[s] * sums[s], den) if sums[s] else _ZERO
                                for s in ZETA_ORDERS))


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
    """The Bernoulli number B_index for an even int index >= 2, exactly,
    memoized (:func:`_bernoulli`)."""
    if checked(index, "index", 2) % 2:
        raise RangeError(f"need an even index, got {index}")
    return _bernoulli(index)


@cache
def _bernoulli(index: int) -> Fraction:
    """B_index for an even index >= 2, via tangent numbers:
    B_{2k} = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1))."""
    k = index // 2
    global _TANGENT
    if k > len(_TANGENT):
        _TANGENT = _tangent_numbers(max(k + 8, 2 * len(_TANGENT)))
    four_k = 4**k
    return _F((-1) ** (k - 1) * 2 * k * _TANGENT[k - 1],
              four_k * (four_k - 1))


def _closure(chain: DerivativeChain, cutoff: int, order: int, depth: int) -> Fraction:
    """-g^(order-1)(A) + h(A)/2 - sum_{k<=M} B_2k/(2k)! h^(2k-1)(A), h = g^(order),
    closing sum_{v >= A} h(v) for g = ``chain`` at A = ``cutoff``, M = ``depth``:
    in integers, over the denominator of :meth:`DerivativeChain.numerators`."""
    numerators, denominator = chain.numerators(cutoff, order + 2 * depth - 1)
    terms = [(-1, 1, order - 1), (1, 2, order)] + [
        (-b.numerator, b.denominator * factorial(2 * k), order + 2 * k - 1)
        for k in range(1, depth + 1) for b in [_bernoulli(2 * k)]]
    weights = lcm(*(w for _, w, _ in terms))
    return _F(sum(c * (weights // w) * numerators[d] for c, w, d in terms),
              weights * denominator)


# ---------------------------------------------------------------------------
# fixed-point numbers with tracked error
# ---------------------------------------------------------------------------


def _decimal_digits(value: int) -> str:
    """str(value) for an int value >= 0 of any length.  CPython's str()
    refuses ints past ``sys.get_int_max_str_digits()`` digits (4,300 by
    default, never set below 640), so a long value is split in two by a
    power of ten and each half converted on its own."""
    if value.bit_length() <= 2000:              # under 603 digits
        return str(value)
    half = value.bit_length() * 3 // 20         # about half its digit count
    high, low = divmod(value, 10**half)
    return _decimal_digits(high) + _decimal_digits(low).rjust(half, "0")


class FixedPointNumber(_Value):
    """An int mantissa * 10^(-scale), an int ``scale`` >= 1 decimals, plus an
    exact rational bound ``error_bound`` >= 0 on |true - stored|."""

    _fields = __slots__ = ("mantissa", "scale", "error_bound")

    def __init__(self, mantissa: int, scale: int, error_bound: Fraction) -> None:
        object.__setattr__(self, "mantissa", checked(mantissa, "mantissa"))
        object.__setattr__(self, "scale", checked(scale, "scale", 1))
        object.__setattr__(self, "error_bound",
                           checked(error_bound, "error_bound", 0, kind=Rational))

    @classmethod
    def from_fraction(cls, value: Fraction, scale: int,
                      inherent_error: Fraction = _ZERO) -> "FixedPointNumber":
        """Round an exact rational value (with optional prior error >= 0) to
        fixed point, scale and error refused first (10^scale is a float below
        1).  The bound, rounding error plus ``inherent_error``, is rounded up to
        whole tenths of the last digit, so it prints at any scale; with an
        inherited error of at most a tenth, it is at most 6 tenths, below one unit."""
        checked(scale, "scale", 1)
        checked(inherent_error, "inherent_error", 0, kind=Rational)
        (num, den), power = checked(value, "value", kind=Rational).as_integer_ratio(), 10**scale
        mantissa = (2 * num * power + den) // (2 * den)
        # in tenths, bound * 10 power = top / (den b) with the bound
        # |mantissa den - num power| / (den power) + a / b, taken up to its ceiling
        a, b = inherent_error.as_integer_ratio()
        top = (abs(mantissa * den - num * power) * b + a * den * power) * 10
        return cls(mantissa, scale, _F(-(-top // (den * b)), 10 * power))

    def value(self) -> Fraction:
        return _F(self.mantissa, 10**self.scale)

    def decimal(self) -> str:
        digits = _decimal_digits(abs(self.mantissa)).rjust(self.scale + 1, "0")
        sign = "-" if self.mantissa < 0 else ""
        return f"{sign}{digits[:-self.scale]}.{digits[-self.scale:]}"

    def agrees_with(self, other: "FixedPointNumber", significant_digits: int) -> bool:
        """True when the two values agree to ``significant_digits`` >= 0 within bounds."""
        checked(other, "other", kind=FixedPointNumber)
        checked(significant_digits, "significant_digits", 0)
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

def _cutoff_and_depth(s: int, digits: int) -> tuple[int, int, Fraction]:
    """(N, M, bound): the least N = 8 * 2^i, then the least M <= 3N + 1, whose
    remainder bound 4 (s)_{2M+1} / (39^(M+1) N^(s+2M+1)) is below
    10^(-digits-3).  Each depth's bound is an integer pair stepped from the
    last one and compared with the target in integers."""
    scale, cutoff = 10 ** (digits + 3), 8
    while True:
        depth, num, den = 1, 4 * s * (s + 1) * (s + 2), 39**2 * cutoff ** (s + 3)
        while num * scale >= den and depth <= 3 * cutoff:
            num *= (s + 2 * depth + 1) * (s + 2 * depth + 2)
            den *= 39 * cutoff**2
            depth += 1
        if num * scale < den:
            return cutoff, depth, _F(num, den)
        cutoff *= 2


def zeta_value(s: int, digits: int) -> FixedPointNumber:
    """zeta(s) to ``digits`` decimal places with a certified error bound.

    Euler–Maclaurin with an exact-rational tail:

        zeta(s) = sum_{k<N} k^(-s) + N^(-s)/2 + N^(1-s)/(s-1)
                  + sum_{i=1..M} B_{2i}/(2i)! * (s)_{2i-1} * N^(1-s-2i) + R,

    with |R| below the first omitted term: |B_{2k}| / (2k)! < 4 / (2 pi)^(2k)
    < 4 / 39^k gives the rational envelope
    4 (s)_{2M+1} / (39^(M+1) N^(s+2M+1)).  N and M are chosen so the bound
    is below 10^(-digits-3) (:func:`_cutoff_and_depth`).  The head is the
    power-sum row entry L^s S_s(N-1) over L^s, L = lcm(1..N-1)
    (:func:`~apery4.exact_arith._power_sums`); the boundary and Bernoulli
    terms are the shared closure (:func:`_closure`) of h = t^(-s) = g',
    g = -t^(1-s)/(s-1), so the bound is a theorem, not an estimate.
    """
    cutoff, depth, bound = _cutoff_and_depth(checked(s, "s", 2), checked(digits, "digits", 1))
    scale, rows = _power_sums(cutoff - 1, (s,))
    closure = _closure(DerivativeChain([1], _F(-1, s - 1), [(0, 1 - s)]), cutoff, 1, depth)
    total = _F(rows[s][cutoff - 1], scale**s) + closure
    return FixedPointNumber.from_fraction(total, digits, inherent_error=bound)


def evaluate_decimal(form: ZetaLinearForm, digits: int) -> FixedPointNumber:
    """Certified decimal value of a linear form, |error| < 10^(-digits).

    The zeta basis values are taken with enough guard digits to absorb the
    size of the rational coefficients (which grow like binomial^4), so the
    stated bound survives the linear combination.
    """
    checked(form, "form", kind=ZetaLinearForm)
    checked(digits, "digits", 1)
    size = sum(abs(c) for c in form.zeta_coefficients)
    guard = 8 + len(_decimal_digits(1 + int(size)))
    exact = form.constant
    error = _ZERO
    for s, c in zip(ZETA_ORDERS, form.zeta_coefficients):
        if c == 0:
            continue
        z = zeta_value(s, digits + guard)
        exact += c * z.value()
        error += abs(c) * z.error_bound
    return FixedPointNumber.from_fraction(exact, digits, inherent_error=error)
