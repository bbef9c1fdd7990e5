"""Exact arithmetic over rational functions in fractional powers of t with
GF(2) coefficients, the one-point lift of the wave operator, and mechanical
verification of the tropicalization identity.

The coefficient field is realized exactly.  A polynomial is stored as
``t^v * (bitmask over t^(1/2^s))`` with an odd bitmask, so addition is XOR,
multiplication is carry-less integer multiplication, and fractions reduce by
polynomial GCD; valuations are exact minimal exponents.  Squaring is the
Frobenius (exponents double), which is what makes the lift's square root
disappear in characteristic two.
"""

from __future__ import annotations

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
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a


def _dilate(m: int, k: int) -> int:
    """Move bit b to bit b * 2^k (rescaling exponent denominators)."""
    if k == 0 or m == 0:
        return m
    out = 0
    i = 0
    while m:
        if m & 1:
            out |= 1 << (i << k)
        m >>= 1
        i += 1
    return out


def _compress(m: int) -> Optional[int]:
    """Inverse of one dilation step; None if odd-index bits are present."""
    out = 0
    i = 0
    while m:
        if m & 1:
            if i & 1:
                return None
            out |= 1 << (i >> 1)
        m >>= 1
        i += 1
    return out


class GF2Poly:
    """Polynomial in t^(1/2^k) over GF(2), canonically normalized."""

    __slots__ = ("v", "s", "mask")

    def __init__(self, exps=(), *, _raw=None):
        if _raw is not None:
            v, s, mask = _raw
        else:
            terms = {}
            for e in exps:
                e = Fraction(e)
                if e.denominator & (e.denominator - 1):
                    raise LiftError(f"exponent {e} is not dyadic")
                terms[e] = terms.get(e, 0) ^ 1
            live = sorted(e for e, c in terms.items() if c)
            if not live:
                v, s, mask = Fraction(0), 0, 0
            else:
                v = live[0]
                s = 0
                for e in live:
                    d = (e - v).denominator
                    s = max(s, d.bit_length() - 1)
                mask = 0
                for e in live:
                    mask |= 1 << int((e - v) * (1 << s))
        # normalize: strip the trailing factor into v, shrink the scale
        if mask:
            tz = (mask & -mask).bit_length() - 1
            if tz:
                v = v + Fraction(tz, 1 << s)
                mask >>= tz
            while s > 0:
                c = _compress(mask)
                if c is None:
                    break
                mask = c
                s -= 1
        else:
            v, s = Fraction(0), 0
        self.v = v
        self.s = s
        self.mask = mask

    @staticmethod
    def zero() -> "GF2Poly":
        return GF2Poly()

    @staticmethod
    def one() -> "GF2Poly":
        return GF2Poly(_raw=(Fraction(0), 0, 1))

    @staticmethod
    def t(power=1) -> "GF2Poly":
        return GF2Poly(_raw=(Fraction(power), 0, 1))

    def is_zero(self) -> bool:
        return self.mask == 0

    def val(self) -> Optional[Fraction]:
        return None if self.mask == 0 else self.v

    def exps(self) -> set:
        out = set()
        m, i = self.mask, 0
        while m:
            if m & 1:
                out.add(self.v + Fraction(i, 1 << self.s))
            m >>= 1
            i += 1
        return out

    def _aligned(self, other: "GF2Poly"):
        v = min(self.v, other.v)
        s = max(self.s, other.s)
        for d in ((self.v - v).denominator, (other.v - v).denominator):
            s = max(s, d.bit_length() - 1)
        ma = _dilate(self.mask, s - self.s) << int((self.v - v) * (1 << s))
        mb = _dilate(other.mask, s - other.s) << int((other.v - v) * (1 << s))
        return v, s, ma, mb

    def __add__(self, other: "GF2Poly") -> "GF2Poly":
        if self.mask == 0:
            return other
        if other.mask == 0:
            return self
        v, s, ma, mb = self._aligned(other)
        return GF2Poly(_raw=(v, s, ma ^ mb))

    def __mul__(self, other: "GF2Poly") -> "GF2Poly":
        if self.mask == 0 or other.mask == 0:
            return GF2Poly.zero()
        s = max(self.s, other.s)
        ma = _dilate(self.mask, s - self.s)
        mb = _dilate(other.mask, s - other.s)
        return GF2Poly(_raw=(self.v + other.v, s, _clmul(ma, mb)))

    def square(self) -> "GF2Poly":
        return GF2Poly(_raw=(2 * self.v, self.s, _dilate(self.mask, 1)))

    def __eq__(self, other):
        return (isinstance(other, GF2Poly) and self.mask == other.mask
                and (self.mask == 0 or (self.v == other.v and self.s == other.s)))

    def __hash__(self):
        return hash((self.v, self.s, self.mask))

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


class GF2RatFun:
    """Reduced fraction of GF2Poly's: den is monic with constant term 1 and
    coprime to num, so equality is structural."""

    __slots__ = ("num", "den")

    def __init__(self, num: GF2Poly, den: Optional[GF2Poly] = None):
        den = GF2Poly.one() if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = GF2Poly.zero()
            self.den = GF2Poly.one()
            return
        s = max(num.s, den.s)
        mn = _dilate(num.mask, s - num.s)
        md = _dilate(den.mask, s - den.s)
        g = _poly_gcd(mn, md)
        if g != 1:
            mn = _poly_divmod(mn, g)[0]
            md = _poly_divmod(md, g)[0]
        self.num = GF2Poly(_raw=(num.v - den.v, s, mn))
        self.den = GF2Poly(_raw=(Fraction(0), s, md))

    @staticmethod
    def zero() -> "GF2RatFun":
        return GF2RatFun(GF2Poly.zero())

    @staticmethod
    def one() -> "GF2RatFun":
        return GF2RatFun(GF2Poly.one())

    @staticmethod
    def t(power=1) -> "GF2RatFun":
        return GF2RatFun(GF2Poly.t(power))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def val(self) -> Optional[Fraction]:
        """Exact valuation; None encodes plus infinity (the zero element)."""
        if self.is_zero():
            return None
        return self.num.val() - self.den.val()

    def __add__(self, other: "GF2RatFun") -> "GF2RatFun":
        return GF2RatFun(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __sub__ = __add__  # characteristic two

    def __mul__(self, other: "GF2RatFun") -> "GF2RatFun":
        return GF2RatFun(self.num * other.num, self.den * other.den)

    def inverse(self) -> "GF2RatFun":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        return GF2RatFun(self.den, self.num)

    def __truediv__(self, other: "GF2RatFun") -> "GF2RatFun":
        return self * other.inverse()

    def square(self) -> "GF2RatFun":
        return GF2RatFun(self.num.square(), self.den.square())

    def pow(self, k: int) -> "GF2RatFun":
        if k < 0:
            return self.inverse().pow(-k)
        out = GF2RatFun.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, GF2RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == GF2Poly.one():
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
        p1, p2 = p
        out = GF2RatFun.zero()
        for (i, j), a in self.coeffs.items():
            out = out + a * p1.pow(i) * p2.pow(j)
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
    unique minimal monomial to tie with the runner-up; ties fix the input."""
    vals = sorted((c + v[0] * q[0] + v[1] * q[1], v) for v, c in tf.items())
    if len(vals) < 2 or vals[0][0] == vals[1][0]:
        return dict(tf)
    out = dict(tf)
    out[vals[0][1]] = tf[vals[0][1]] + (vals[1][0] - vals[0][0])
    return out


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
        out[(i, j)] = a + a.square() * p1.pow(i) * p2.pow(j) * inv
    return LaurentPoly2(out)


def verify_lift_theorem(F: LaurentPoly2, p: Tuple[GF2RatFun, GF2RatFun]):
    """Compare G_{val p}(Trop F) with Trop(S_p F) exactly.

    Returns (True, None) on agreement, else (False, (monomial, lhs, rhs))
    for the first differing monomial (rhs None when the monomial vanished
    from S_p F entirely, which happens only in the degenerate cancellation
    configuration the identity implicitly excludes).
    """
    q = (p[0].val(), p[1].val())
    lhs = trop_wave(trop(F), q)
    SF = s_wave(F, p)
    if SF.is_zero():
        return False, (None, None, None)
    rhs = trop(SF)
    for v in sorted(set(lhs) | set(rhs)):
        lv = lhs.get(v)
        rv = rhs.get(v)
        if lv != rv:
            return False, (v, lv, rv)
    return True, None


# -- fuzzing -------------------------------------------------------------------


def random_gf2ratfun(rng: random.Random, *, max_terms: int = 2,
                     denom_pow: int = 1) -> GF2RatFun:
    """A random nonzero rational function with small dyadic exponents."""
    def poly():
        k = rng.randrange(1, max_terms + 1)
        exps = set()
        while len(exps) < k:
            exps.add(Fraction(rng.randrange(0, 9), 2 ** rng.randrange(0, denom_pow + 1)))
        return GF2Poly(exps)

    num = poly()
    den = poly() if rng.random() < 0.4 else GF2Poly.one()
    return GF2RatFun(num, den)


def random_instance(rng: random.Random, *, n_terms: int = 5):
    """A random (F, p) pair with monomial point coordinates (dyadic powers)."""
    support: set = set()
    while len(support) < n_terms:
        support.add((rng.randrange(-2, 3), rng.randrange(-2, 3)))
    coeffs = {v: random_gf2ratfun(rng) for v in support}
    F = LaurentPoly2(coeffs)
    p = (GF2RatFun.t(Fraction(rng.randrange(-4, 9), 2 ** rng.randrange(0, 2))),
         GF2RatFun.t(Fraction(rng.randrange(-4, 9), 2 ** rng.randrange(0, 2))))
    return F, p


def degenerate_cancellation(F: LaurentPoly2, p) -> bool:
    """True when the instance falls outside the identity's implicit
    genericity assumption: either the remaining monomials cancel below their
    predicted valuation at p (unique-minimum case), or the tropical minimum
    ties at val(p) without F(p) vanishing exactly.

    Over this field the residue coefficients are all 1, so any exact tie
    whose terms do not sum to zero shifts valuations on the lifted side while
    the tropical side stays fixed; the identity's tie branch is the F(p) = 0
    configuration.
    """
    q = (p[0].val(), p[1].val())
    tf = trop(F)
    vals = sorted((c + v[0] * q[0] + v[1] * q[1], v) for v, c in tf.items())
    if len(vals) < 2 or vals[0][0] == vals[1][0]:
        return not F.evaluate(p).is_zero()
    k = vals[0][1]
    rest = GF2RatFun.zero()
    p1, p2 = p
    for (i, j), a in F.coeffs.items():
        if (i, j) != k:
            rest = rest + a * p1.pow(i) * p2.pow(j)
    expected = vals[1][0]
    return rest.is_zero() or rest.val() != expected


def fuzz_lift(trials: int, seed: int = 0) -> dict:
    """Random verification of the lift identity plus idempotence and the
    vanishing of S_p F at p; degenerate cancellation draws are resampled and
    counted."""
    rng = random.Random(seed)
    checked = 0
    degenerate = 0
    failures: List = []
    while checked < trials:
        F, p = random_instance(rng)
        if degenerate_cancellation(F, p):
            degenerate += 1
            continue
        ok, witness = verify_lift_theorem(F, p)
        if not ok:
            failures.append((F.to_text(), str(p[0]), str(p[1]), witness))
        SF = s_wave(F, p)
        if not SF.evaluate(p).is_zero():
            failures.append((F.to_text(), str(p[0]), str(p[1]), "S_p F (p) != 0"))
        if s_wave(SF, p) != SF:
            failures.append((F.to_text(), str(p[0]), str(p[1]), "not idempotent"))
        checked += 1
    return {"trials": checked, "degenerate_skipped": degenerate,
            "failures": failures, "seed": seed}
