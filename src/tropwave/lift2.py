"""Exact arithmetic over rational functions in fractional powers of t with
GF(2) coefficients, the one-point lift of the wave operator, and mechanical
verification of the tropicalization identity.

The coefficient field is realized exactly, in integers.  A polynomial is
stored as ``t^(v/2^k) * (bitmask over t^(1/2^s))`` with an odd bitmask, so
addition is XOR, multiplication is carry-less integer multiplication, and
valuations are exact minimal exponents.  Squaring is the Frobenius
(exponents double), which is what makes the lift's square root disappear in
characteristic two.

A rational function is a reduced fraction, and the arithmetic keeps it
reduced without ever taking the gcd of a product (Henrici's rules; Knuth,
TAOCP vol. 2, 4.5.1):

- a/b * c/d divides out the cross gcds gcd(a, d) and gcd(c, b);
- a/b + c/d divides out g = gcd(b, d), then gcd(numerator, g);
- the square, the inverse and a power of a reduced fraction are reduced, so
  they take no gcd at all;
- a product with a monomial t^q (numerator mask 1, denominator 1) only
  shifts the other numerator's exponent: t is prime to a denominator with
  constant term 1, so the result is still reduced, with no dilation,
  carry-less product or gcd.  A power of a monomial, negative powers
  included, is the monomial t^(nq), so each term a p1^i p2^j at the lift's
  monomial points is one shift of a's numerator, by i q1 + j q2 (`_term`).

The lift check is integer end to end too.  Random draws take their
exponents as reduced dyadic pairs (v, k), and `_compare_lift` and
`degenerate_cancellation` compare valuations as integers on one scale 2^K
per instance, through the same tropical-wave rule `_int_wave` that
`trop_wave` calls after putting its rationals on one scale.  A `Fraction`
is made only at the public API (`val`, `trop`, `trop_wave`) and for a
failure's witness.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Vec = Tuple[int, int]


class LiftError(Exception):
    pass


class ZeroPolynomial(LiftError):
    pass


# -- GF(2)[x] on int bitmasks --------------------------------------------------


def _clmul(a: int, b: int) -> int:
    if a == 1 or b == 1:
        return a * b
    out = 0
    shift = 0
    while b:
        if b & 1:
            out ^= a << shift
        b >>= 1
        shift += 1
    return out


def _poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError
    q = 0
    db, da = b.bit_length(), a.bit_length()
    while da >= db:
        shift = da - db
        q ^= 1 << shift
        a ^= b << shift
        da = a.bit_length()
    return q, a


def _poly_gcd(a: int, b: int) -> int:
    if a == 1 or b == 1:
        return 1
    while b:
        # a mod b, without the quotient
        db, da = b.bit_length(), a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


def _dilate(m: int, k: int) -> int:
    """Move bit b to bit b * 2^k (rescaling exponent denominators)."""
    if k == 0 or m <= 1:
        return m
    out = 0
    while m:
        low = m & -m
        out |= 1 << ((low.bit_length() - 1) << k)
        m ^= low
    return out


def _compress(m: int) -> Optional[int]:
    """Inverse of one dilation step; None if odd-index bits are present."""
    half = (m.bit_length() + 1) >> 1
    if m & ((((1 << 2 * half) - 1) // 3) << 1):
        return None
    out = 0
    while m:
        low = m & -m
        out |= 1 << ((low.bit_length() - 1) >> 1)
        m ^= low
    return out


def _exp_sum(v1: int, k1: int, v2: int, k2: int) -> tuple[int, int]:
    """v1/2^k1 + v2/2^k2 as an integer over 2^max(k1, k2)."""
    if k1 < k2:
        return (v1 << (k2 - k1)) + v2, k2
    return v1 + (v2 << (k1 - k2)), k1


def _poly(v: int, k: int, s: int, mask: int) -> "GF2Poly":
    """The canonical GF2Poly equal to t^(v/2^k) * mask(t^(1/2^s)): the
    mask's trailing zeros move into the exponent, the scale s shrinks while
    the mask allows, and v is odd unless k = 0."""
    if not mask:
        return _ZERO
    low = mask & -mask
    if low != 1:
        mask >>= low.bit_length() - 1
        v, k = _exp_sum(v, k, low.bit_length() - 1, s)
    while s:
        c = _compress(mask)
        if c is None:
            break
        mask = c
        s -= 1
    if k and not v & 1:
        tz = min(k, (v & -v).bit_length() - 1) if v else k
        v >>= tz
        k -= tz
    return _raw_poly(v, k, s, mask)


def _raw_poly(v: int, k: int, s: int, mask: int) -> "GF2Poly":
    """A GF2Poly from fields already in canonical form."""
    p = object.__new__(GF2Poly)
    p.v, p.k, p.s, p.mask = v, k, s, mask
    return p


def _dyadic(e) -> tuple[int, int]:
    """A dyadic rational as (v, k) with e = v/2^k."""
    e = Fraction(e)
    d = e.denominator
    if d & (d - 1):
        raise LiftError(f"exponent {e} is not dyadic")
    return e.numerator, d.bit_length() - 1


def _reduced(v: int, k: int) -> tuple[int, int]:
    """The dyadic pair of v/2^k in lowest terms: v odd unless k = 0."""
    while k and not v & 1:
        v >>= 1
        k -= 1
    return v, k


def _from_dyadics(pairs: list) -> "GF2Poly":
    """The sum of the monomials t^(v/2^k) over the dyadic pairs (v, k); a
    monomial that appears twice cancels (characteristic two)."""
    if not pairs:
        return _ZERO
    k = max(kv for _, kv in pairs)
    ints = [v << (k - kv) for v, kv in pairs]
    v = min(ints)
    mask = 0
    for e in ints:
        mask ^= 1 << (e - v)
    return _poly(v, k, k, mask)


class GF2Poly:
    """Polynomial in t^(1/2^s) over GF(2), canonically normalized: the
    lowest exponent is v/2^k and the odd mask holds the rest."""

    __slots__ = ("v", "k", "s", "mask")

    def __init__(self, exps=()):
        p = _from_dyadics([_dyadic(e) for e in exps])
        self.v, self.k, self.s, self.mask = p.v, p.k, p.s, p.mask

    @staticmethod
    def zero() -> "GF2Poly":
        return _ZERO

    @staticmethod
    def one() -> "GF2Poly":
        return _ONE

    @staticmethod
    def t(power=1) -> "GF2Poly":
        return _raw_poly(*_dyadic(power), 0, 1)

    def is_zero(self) -> bool:
        return self.mask == 0

    def val(self) -> Optional[Fraction]:
        return None if self.mask == 0 else Fraction(self.v, 1 << self.k)

    def exps(self) -> set:
        out = set()
        m, i = self.mask, 0
        while m:
            if m & 1:
                out.add(Fraction(self.v, 1 << self.k) + Fraction(i, 1 << self.s))
            m >>= 1
            i += 1
        return out

    def __add__(self, other: "GF2Poly") -> "GF2Poly":
        if self.mask == 0:
            return other
        if other.mask == 0:
            return self
        v, k, s, ma, mb = _aligned(self, other, max(self.s, other.s))
        return _poly(v, k, s, ma ^ mb)

    def __mul__(self, other: "GF2Poly") -> "GF2Poly":
        if self.mask == 0 or other.mask == 0:
            return _ZERO
        s = max(self.s, other.s)
        v, k = _exp_sum(self.v, self.k, other.v, other.k)
        return _poly(v, k, s, _clmul(_dilate(self.mask, s - self.s),
                                     _dilate(other.mask, s - other.s)))

    def square(self) -> "GF2Poly":
        # Frobenius: exponents double, and the result is already canonical
        if self.mask == 0:
            return _ZERO
        if self.k:
            v, k = self.v, self.k - 1
        else:
            v, k = 2 * self.v, 0
        if self.s:
            return _raw_poly(v, k, self.s - 1, self.mask)
        return _raw_poly(v, k, 0, _dilate(self.mask, 1))

    def pow(self, n: int) -> "GF2Poly":
        """self^n for n >= 0."""
        if self.mask == 1:
            return _poly(self.v * n, self.k, 0, 1)
        out, base = _ONE, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base.square()
        return out

    def __eq__(self, other):
        return (isinstance(other, GF2Poly) and self.mask == other.mask
                and (self.mask == 0 or (self.v == other.v and self.k == other.k
                                        and self.s == other.s)))

    def __hash__(self):
        return hash((self.v, self.k, self.s, self.mask))

    def __str__(self):
        if self.mask == 0:
            return "0"
        parts = []
        for e in sorted(self.exps()):
            if e == 0:
                parts.append("1")
            elif e == 1:
                parts.append("t")
            elif e.denominator == 1:
                parts.append(f"t^{e}")
            else:
                parts.append(f"t^({e})")
        return "+".join(parts)

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "GF2Poly":
        text = text.strip().replace(" ", "")
        if text == "0":
            return GF2Poly.zero()
        exps = []
        for part in text.split("+"):
            if part == "1":
                exps.append(Fraction(0))
            elif part == "t":
                exps.append(Fraction(1))
            elif part.startswith("t^"):
                exps.append(Fraction(part[2:].strip("()")))
            else:
                raise LiftError(f"cannot parse term {part!r}")
        return GF2Poly(exps)


_ZERO = _raw_poly(0, 0, 0, 0)
_ONE = _raw_poly(0, 0, 0, 1)


def _aligned(a: GF2Poly, b: GF2Poly, s: int):
    """(v, k, s', ma, mb): both masks over t^(1/2^s') with s' >= s, shifted
    to the common lowest exponent v/2^k."""
    k = max(a.k, b.k)
    va, vb = a.v << (k - a.k), b.v << (k - b.k)
    v = min(va, vb)
    diff = va + vb - 2 * v  # the one nonzero offset, or 0
    if diff:
        s = max(s, k - ((diff & -diff).bit_length() - 1))
    ma = _dilate(a.mask, s - a.s) << (((va - v) << s) >> k)
    mb = _dilate(b.mask, s - b.s) << (((vb - v) << s) >> k)
    return v, k, s, ma, mb


def _exact_div(a: int, b: int) -> int:
    return a if b == 1 else _poly_divmod(a, b)[0]


class GF2RatFun:
    """Reduced fraction of GF2Poly's: den is monic with constant term 1 and
    coprime to num, so equality is structural.  The constructor reduces any
    fraction by the gcd of num and den; the arithmetic keeps its operands'
    reductions instead (see the module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num: GF2Poly, den: Optional[GF2Poly] = None):
        den = _ONE if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = _ZERO, _ONE
            return
        s = max(num.s, den.s)
        mn = _dilate(num.mask, s - num.s)
        md = _dilate(den.mask, s - den.s)
        g = _poly_gcd(mn, md)
        v, k = _exp_sum(num.v, num.k, -den.v, den.k)
        self.num = _poly(v, k, s, _exact_div(mn, g))
        self.den = _poly(0, 0, s, _exact_div(md, g))

    @staticmethod
    def zero() -> "GF2RatFun":
        return _ratfun(_ZERO, _ONE)

    @staticmethod
    def one() -> "GF2RatFun":
        return _ratfun(_ONE, _ONE)

    @staticmethod
    def t(power=1) -> "GF2RatFun":
        return _ratfun(GF2Poly.t(power), _ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def val(self) -> Optional[Fraction]:
        """Exact valuation; None encodes plus infinity (the zero element)."""
        return self.num.val()  # den has constant term 1

    def __add__(self, other: "GF2RatFun") -> "GF2RatFun":
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.mask == 0:
            return other
        if c.mask == 0:
            return self
        v, k, s, ma, mc = _aligned(a, c, max(a.s, b.s, c.s, d.s))
        mb = _dilate(b.mask, s - b.s)
        md = _dilate(d.mask, s - d.s)
        g = _poly_gcd(mb, md)
        mb, md = _exact_div(mb, g), _exact_div(md, g)
        num = _clmul(ma, md) ^ _clmul(mc, mb)
        if num == 0:
            return _ratfun(_ZERO, _ONE)
        # num is coprime to b/g and d/g, so only g can share a factor with it
        h = _poly_gcd(num, g)
        return _ratfun(_poly(v, k, s, _exact_div(num, h)),
                       _poly(0, 0, s, _clmul(_clmul(mb, md), _exact_div(g, h))))

    __sub__ = __add__  # characteristic two

    def __mul__(self, other: "GF2RatFun") -> "GF2RatFun":
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.mask == 0 or c.mask == 0:
            return _ratfun(_ZERO, _ONE)
        # a monomial t^q shifts the other numerator's exponent
        if c.mask == 1 and d.mask == 1:
            return _ratfun(_poly(*_exp_sum(a.v, a.k, c.v, c.k), a.s, a.mask), b)
        if a.mask == 1 and b.mask == 1:
            return _ratfun(_poly(*_exp_sum(a.v, a.k, c.v, c.k), c.s, c.mask), d)
        s = max(a.s, b.s, c.s, d.s)
        ma, mb = _dilate(a.mask, s - a.s), _dilate(b.mask, s - b.s)
        mc, md = _dilate(c.mask, s - c.s), _dilate(d.mask, s - d.s)
        g1 = _poly_gcd(ma, md)
        g2 = _poly_gcd(mc, mb)
        v, k = _exp_sum(a.v, a.k, c.v, c.k)
        return _ratfun(
            _poly(v, k, s, _clmul(_exact_div(ma, g1), _exact_div(mc, g2))),
            _poly(0, 0, s, _clmul(_exact_div(mb, g2), _exact_div(md, g1))))

    def inverse(self) -> "GF2RatFun":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        a, b = self.num, self.den
        return _ratfun(_raw_poly(-a.v, a.k, b.s, b.mask),
                       _raw_poly(0, 0, a.s, a.mask))

    def __truediv__(self, other: "GF2RatFun") -> "GF2RatFun":
        return self * other.inverse()

    def square(self) -> "GF2RatFun":
        return _ratfun(self.num.square(), self.den.square())

    def pow(self, k: int) -> "GF2RatFun":
        a = self.num
        if a.mask == 1 and self.den.mask == 1:
            # the monomial t^q: its power t^(kq) is one exponent product
            return _ratfun(_poly(a.v * k, a.k, 0, 1), _ONE)
        if k < 0:
            return self.inverse().pow(-k)
        return _ratfun(self.num.pow(k), self.den.pow(k))

    def __eq__(self, other):
        if not isinstance(other, GF2RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "GF2RatFun":
        # fractions print as "(num)/(den)"; a bare polynomial may itself
        # contain "/" inside dyadic exponents like t^(1/2)
        text = text.strip()
        if text.startswith("(") and text.endswith(")") and ")/(" in text:
            num, den = text[1:-1].split(")/(", 1)
            return GF2RatFun(GF2Poly.parse(num), GF2Poly.parse(den))
        return GF2RatFun(GF2Poly.parse(text))


def _ratfun(num: GF2Poly, den: GF2Poly) -> GF2RatFun:
    """A GF2RatFun from a num and den already in reduced canonical form."""
    r = object.__new__(GF2RatFun)
    r.num, r.den = num, den
    return r


def _term(a: GF2RatFun, p: Tuple[GF2RatFun, GF2RatFun], i: int,
          j: int) -> GF2RatFun:
    """a * p1^i * p2^j.  At a monomial point (t^q1, t^q2) only a's
    numerator exponent moves, by i q1 + j q2, through one `_poly`."""
    p1, p2 = p
    if p1.num.mask == p1.den.mask == p2.num.mask == p2.den.mask == 1:
        n, m1, m2 = a.num, p1.num, p2.num
        v, k = _exp_sum(*_exp_sum(n.v, n.k, i * m1.v, m1.k), j * m2.v, m2.k)
        return _ratfun(_poly(v, k, n.s, n.mask), a.den)
    return a * p1.pow(i) * p2.pow(j)


class LaurentPoly2:
    """Two-variable Laurent polynomial with GF2RatFun coefficients."""

    def __init__(self, coeffs: Dict[Vec, GF2RatFun]):
        self.coeffs = {tuple(v): c for v, c in coeffs.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[Vec]:
        return sorted(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.coeffs == other.coeffs

    def evaluate(self, p: Tuple[GF2RatFun, GF2RatFun]) -> GF2RatFun:
        out = GF2RatFun.zero()
        for (i, j), a in self.coeffs.items():
            out = out + _term(a, p, i, j)
        return out

    def to_text(self) -> str:
        return "\n".join(f"A({i},{j})={self.coeffs[(i, j)]}"
                         for (i, j) in self.support())

    @staticmethod
    def parse(text: str) -> "LaurentPoly2":
        coeffs: Dict[Vec, GF2RatFun] = {}
        for line in text.strip().splitlines():
            line = line.strip()
            if not line:
                continue
            head, body = line.split("=", 1)
            head = head.strip()
            if not (head.startswith("A(") and head.endswith(")")):
                raise LiftError(f"bad coefficient line {line!r}")
            i, j = head[2:-1].split(",")
            coeffs[(int(i), int(j))] = GF2RatFun.parse(body)
        return LaurentPoly2(coeffs)


# -- operations ----------------------------------------------------------------


def valuation(a: GF2RatFun) -> Optional[Fraction]:
    """Exact valuation of a coefficient; None is plus infinity (val of 0)."""
    return a.val()


def trop(F: LaurentPoly2) -> Dict[Vec, Fraction]:
    """The min-plus polynomial (i,j) -> val(A_ij) of a nonzero F."""
    if F.is_zero():
        raise ZeroPolynomial("Trop of the zero polynomial")
    return {v: a.val() for v, a in F.coeffs.items()}


def trop_wave(tf: Dict[Vec, Fraction], q) -> Dict[Vec, Fraction]:
    """Domain-free single wave on a finite min-plus polynomial at q: bump the
    unique minimal monomial to tie with the runner-up; ties fix the input.
    The values are put on one integer scale for `_int_wave`."""
    d = math.lcm(q[0].denominator, q[1].denominator,
                 *(c.denominator for c in tf.values()))
    out = dict(tf)
    hit = _int_wave({v: c.numerator * (d // c.denominator)
                     for v, c in tf.items()},
                    tuple(x.numerator * (d // x.denominator) for x in q))
    if hit:
        v, low, high = hit
        out[v] = tf[v] + Fraction(high - low, d)
    return out


def _int_wave(tf: Dict[Vec, int], q: Tuple[int, int]):
    """The tropical wave's rule on integers, with tf's values and the point
    q on one scale: (v, low, high) for the unique minimal monomial v at q,
    its value low and the runner-up's value high; None when the minimum
    ties or tf has fewer than two monomials, where the wave fixes tf."""
    low = high = arg = None
    for v, c in tf.items():
        x = c + v[0] * q[0] + v[1] * q[1]
        if low is None or x < low:
            low, high, arg = x, low, v
        elif high is None or x < high:
            high = x
    if high is None or high == low:
        return None
    return arg, low, high


def _scale(p: Tuple[GF2RatFun, GF2RatFun], *polys: LaurentPoly2) -> int:
    """The least K such that 2^K times the valuation of p's coordinates and
    of the polys' coefficients is an integer."""
    if p[0].is_zero() or p[1].is_zero():
        raise LiftError("the point must have nonzero coordinates")
    return max(p[0].num.k, p[1].num.k,
               *(a.num.k for F in polys for a in F.coeffs.values()))


def _int_trop(F: LaurentPoly2, K: int) -> Dict[Vec, int]:
    """Trop F times 2^K: a coefficient's valuation is its numerator's lowest
    exponent v/2^k (the denominator has constant term 1)."""
    return {v: a.num.v << (K - a.num.k) for v, a in F.coeffs.items()}


def _int_point(p: Tuple[GF2RatFun, GF2RatFun], K: int) -> Tuple[int, int]:
    """val(p) times 2^K."""
    return (p[0].num.v << (K - p[0].num.k), p[1].num.v << (K - p[1].num.k))


def s_wave(F: LaurentPoly2, p: Tuple[GF2RatFun, GF2RatFun]) -> LaurentPoly2:
    """The characteristic-two lift of the wave: F + F(sqrt(z p))^2 / F(p).

    Frobenius collapses the square root, so coefficientwise
    A_ij -> A_ij + A_ij^2 p1^i p2^j / F(p); when F(p) = 0 the operator is the
    identity.
    """
    p1, p2 = p
    if p1.is_zero() or p2.is_zero():
        raise LiftError("the point must have nonzero coordinates")
    Fp = F.evaluate(p)
    if Fp.is_zero():
        return F
    inv = Fp.inverse()
    out: Dict[Vec, GF2RatFun] = {}
    for (i, j), a in F.coeffs.items():
        out[(i, j)] = a + _term(a.square(), p, i, j) * inv
    return LaurentPoly2(out)


def verify_lift_theorem(F: LaurentPoly2, p: Tuple[GF2RatFun, GF2RatFun]):
    """Compare G_{val p}(Trop F) with Trop(S_p F) exactly.

    Returns (True, None) on agreement, else (False, (monomial, lhs, rhs))
    for the first differing monomial (rhs None when the monomial vanished
    from S_p F entirely, which happens only in the degenerate cancellation
    configuration the identity implicitly excludes).
    """
    return _compare_lift(F, p, s_wave(F, p))


def _compare_lift(F: LaurentPoly2, p: Tuple[GF2RatFun, GF2RatFun],
                  SF: LaurentPoly2):
    """`verify_lift_theorem` given SF = S_p F, with both sides' valuations
    as integers on the one scale 2^K of F, SF and p."""
    if F.is_zero():
        raise ZeroPolynomial("Trop of the zero polynomial")
    if SF.is_zero():
        return False, (None, None, None)
    K = _scale(p, F, SF)
    lhs = _int_trop(F, K)
    hit = _int_wave(lhs, _int_point(p, K))
    if hit:
        v, low, high = hit
        lhs[v] += high - low
    rhs = _int_trop(SF, K)
    for v in sorted(lhs.keys() | rhs.keys()):
        lv = lhs.get(v)
        rv = rhs.get(v)
        if lv != rv:
            return False, (v, _unscaled(lv, K), _unscaled(rv, K))
    return True, None


def _unscaled(x: Optional[int], K: int) -> Optional[Fraction]:
    return None if x is None else Fraction(x, 1 << K)


# -- fuzzing -------------------------------------------------------------------


_MAX_TERMS = 2  # terms in a random numerator or denominator, at most
_DENOM_POW = 1  # a random exponent's denominator is 2^k, k <= _DENOM_POW
_N_TERMS = 5  # monomials of a random instance's polynomial


def random_gf2ratfun(rng: random.Random) -> GF2RatFun:
    """A random nonzero rational function with small dyadic exponents, each
    drawn as a reduced dyadic pair (v, k) for v/2^k."""
    def poly():
        n = rng.randrange(1, _MAX_TERMS + 1)
        exps = set()
        while len(exps) < n:
            exps.add(_reduced(rng.randrange(0, 9),
                              rng.randrange(0, _DENOM_POW + 1)))
        return _from_dyadics(list(exps))

    num = poly()
    den = poly() if rng.random() < 0.4 else _ONE
    return GF2RatFun(num, den)


def random_instance(rng: random.Random):
    """A random (F, p) pair with monomial point coordinates (dyadic powers)."""
    support: set = set()
    while len(support) < _N_TERMS:
        support.add((rng.randrange(-2, 3), rng.randrange(-2, 3)))
    coeffs = {v: random_gf2ratfun(rng) for v in support}
    F = LaurentPoly2(coeffs)
    p = (_ratfun(_poly(rng.randrange(-4, 9), rng.randrange(0, 2), 0, 1), _ONE),
         _ratfun(_poly(rng.randrange(-4, 9), rng.randrange(0, 2), 0, 1), _ONE))
    return F, p


def degenerate_cancellation(F: LaurentPoly2, p) -> bool:
    """True when the instance falls outside the identity's implicit
    genericity assumption: either the remaining monomials cancel below their
    predicted valuation at p (unique-minimum case), or the tropical minimum
    ties at val(p) without F(p) vanishing exactly.

    Over this field the residue coefficients are all 1, so any exact tie
    whose terms do not sum to zero shifts valuations on the lifted side while
    the tropical side stays fixed; the identity's tie branch is the F(p) = 0
    configuration.  Valuations are compared as integers on the scale 2^K.
    """
    if F.is_zero():
        raise ZeroPolynomial("Trop of the zero polynomial")
    K = _scale(p, F)
    hit = _int_wave(_int_trop(F, K), _int_point(p, K))
    if hit is None:
        return not F.evaluate(p).is_zero()
    k, _, expected = hit
    rest = GF2RatFun.zero()
    for (i, j), a in F.coeffs.items():
        if (i, j) != k:
            rest = rest + _term(a, p, i, j)
    # val(rest) = v/2^k against expected/2^K, crosswise: rest may need a
    # finer scale than its terms
    return rest.is_zero() or rest.num.v << K != expected << rest.num.k


def fuzz_lift(trials: int, seed: int = 0) -> dict:
    """Random verification of the lift identity and of the vanishing of
    S_p F at p; degenerate cancellation draws are resampled and counted.
    Vanishing at p also makes S_p idempotent there: `s_wave` returns its
    input unchanged where it vanishes."""
    rng = random.Random(seed)
    checked = 0
    degenerate = 0
    failures: List = []
    while checked < trials:
        F, p = random_instance(rng)
        if degenerate_cancellation(F, p):
            degenerate += 1
            continue
        SF = s_wave(F, p)
        ok, witness = _compare_lift(F, p, SF)
        if not ok:
            failures.append((F.to_text(), str(p[0]), str(p[1]), witness))
        if not SF.evaluate(p).is_zero():
            failures.append((F.to_text(), str(p[0]), str(p[1]), "S_p F (p) != 0"))
        checked += 1
    return {"trials": checked, "degenerate_skipped": degenerate,
            "failures": failures, "seed": seed}
