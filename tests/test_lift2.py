import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tropwave import lift2
from tropwave.lift2 import (GF2Poly, GF2RatFun, LaurentPoly2, LiftError,
                            ZeroPolynomial, degenerate_cancellation,
                            fuzz_lift, random_gf2ratfun, s_wave, trop,
                            trop_wave, valuation, verify_lift_theorem)

t = GF2RatFun.t
one = GF2RatFun.one()


class TestValuation:
    def test_polynomial(self):
        assert valuation(GF2RatFun(GF2Poly([F(1), F(2)]))) == 1

    def test_fraction(self):
        # t/(1+t): val = 1 - 0
        a = GF2RatFun(GF2Poly([F(1)]), GF2Poly([F(0), F(1)]))
        assert valuation(a) == 1

    def test_zero_is_plus_infinity(self):
        assert valuation(GF2RatFun.zero()) is None

    def test_dyadic_exponents_enforced(self):
        with pytest.raises(LiftError):
            GF2Poly([F(1, 3)])

    def test_ultrametric(self):
        rng = random.Random(5)
        for _ in range(200):
            a = random_gf2ratfun(rng)
            b = random_gf2ratfun(rng)
            s = a + b
            if s.is_zero():
                continue
            assert s.val() >= min(a.val(), b.val())
            if a.val() != b.val():
                assert s.val() == min(a.val(), b.val())


class TestFieldAxioms:
    def test_axioms(self):
        rng = random.Random(9)
        for _ in range(200):
            a = random_gf2ratfun(rng)
            b = random_gf2ratfun(rng)
            c = random_gf2ratfun(rng)
            assert (a + a).is_zero()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == one
            assert (a + b).square() == a.square() + b.square()  # Frobenius

    def test_reduction_canonical(self):
        r = GF2RatFun(GF2Poly([F(1), F(2)]), GF2Poly([F(0), F(1)]))
        assert r == t(1)          # (t + t^2)/(1 + t) = t
        assert str(r) == "t"


class TestTrop:
    def test_unit_coefficients(self):
        Fxy = LaurentPoly2({(1, 0): one, (0, 1): one})
        assert trop(Fxy) == {(1, 0): F(0), (0, 1): F(0)}

    def test_t_coefficient(self):
        F2 = LaurentPoly2({(1, 0): t(1), (0, 1): one})
        assert trop(F2) == {(1, 0): F(1), (0, 1): F(0)}

    def test_valuation_of_sum(self):
        F3 = LaurentPoly2({(1, 0): GF2RatFun(GF2Poly([F(1), F(2)]))})
        assert trop(F3) == {(1, 0): F(1)}

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            trop(LaurentPoly2({}))


class TestSWave:
    def test_hand_computed_example(self):
        # F = X + Y at p = (t, t^2): new A10 = t/(1+t) (val 1), new A01 =
        # 1/(1+t) (val 0); Trop(S_p F) = min(x+1, y)
        Fxy = LaurentPoly2({(1, 0): one, (0, 1): one})
        p = (t(1), t(2))
        SF = s_wave(Fxy, p)
        assert SF.coeffs[(1, 0)] == GF2RatFun(GF2Poly([F(1)]),
                                              GF2Poly([F(0), F(1)]))
        assert SF.coeffs[(0, 1)] == GF2RatFun(GF2Poly([F(0)]),
                                              GF2Poly([F(0), F(1)]))
        assert trop(SF) == {(1, 0): F(1), (0, 1): F(0)}

    def test_fixed_when_vanishing(self):
        Fxy = LaurentPoly2({(1, 0): one, (0, 1): one})
        assert s_wave(Fxy, (t(1), t(1))) == Fxy  # F(p) = t + t = 0

    def test_idempotent(self):
        # S_p F vanishes at p, so S_p returns it unchanged: the fuzz
        # harness needs no second wave per draw
        Fxy = LaurentPoly2({(1, 0): one, (0, 1): one})
        p = (t(1), t(2))
        SF = s_wave(Fxy, p)
        assert s_wave(SF, p) is SF
        rng = random.Random(17)
        checked = 0
        while checked < 60:
            Fr, p = lift2.random_instance(rng)
            if degenerate_cancellation(Fr, p):
                continue
            SF = s_wave(Fr, p)
            assert s_wave(SF, p) is SF
            checked += 1

    def test_result_vanishes_at_point(self):
        Fxy = LaurentPoly2({(1, 0): one, (0, 1): one, (0, 0): t(3)})
        p = (t(1), t(2))
        SF = s_wave(Fxy, p)
        assert SF.evaluate(p).is_zero()


class TestLiftTheorem:
    def test_basic_instance(self):
        Fxy = LaurentPoly2({(1, 0): one, (0, 1): one})
        ok, witness = verify_lift_theorem(Fxy, (t(1), t(2)))
        assert ok and witness is None

    def test_tropical_side_increment(self):
        # lhs: min(x, y) at q=(1,2): x-monomial wins by 1; c = 2 - 1 = 1
        out = trop_wave({(1, 0): F(0), (0, 1): F(0)}, (F(1), F(2)))
        assert out == {(1, 0): F(1), (0, 1): F(0)}

    def test_tie_no_change(self):
        # two monomials tie at val(p) with F(p) = 0: both sides unchanged
        F4 = LaurentPoly2({(1, 0): one, (0, 1): t(1)})
        p = (t(1), one)
        assert not degenerate_cancellation(F4, p)
        ok, _ = verify_lift_theorem(F4, p)
        assert ok
        assert trop(s_wave(F4, p)) == trop(F4)

    def test_degenerate_cancellation_detected(self):
        # F = X + tY + XY at p = (t, t^2): the non-minimal monomials cancel
        # exactly and the identity genuinely fails; the checker reports it
        F5 = LaurentPoly2({(1, 0): one, (0, 1): t(1), (1, 1): one})
        p = (t(1), t(2))
        assert degenerate_cancellation(F5, p)
        ok, witness = verify_lift_theorem(F5, p)
        assert not ok
        assert witness[0] == (1, 0)

    def test_fuzz(self):
        report = fuzz_lift(300, seed=17)
        assert report["trials"] == 300
        assert report["failures"] == []

    def test_fuzz_lifts_each_draw_once(self):
        # S_p F once for the identity and the vanishing check: one wave
        # per checked draw
        calls = []

        def counting(poly, p):
            calls.append(p)
            return s_wave(poly, p)

        with mock.patch.object(lift2, "s_wave", counting):
            report = fuzz_lift(40, seed=17)
        assert report == fuzz_lift(40, seed=17)
        assert len(calls) == report["trials"] == 40


class TestTextFormat:
    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            coeffs = {}
            for _ in range(rng.randrange(1, 5)):
                v = (rng.randrange(-2, 3), rng.randrange(-2, 3))
                coeffs[v] = random_gf2ratfun(rng)
            Fp = LaurentPoly2(coeffs)
            assert LaurentPoly2.parse(Fp.to_text()) == Fp

    def test_deterministic_ordering(self):
        Fp = LaurentPoly2({(1, 0): one, (-1, 2): t(1), (0, 0): t(F(1, 2))})
        assert Fp.to_text().splitlines() == [
            "A(-1,2)=t",
            "A(0,0)=t^(1/2)",
            "A(1,0)=1",
        ]


# -- the reference: Fraction exponents, reduction by the gcd of products -------
#
# A polynomial is (v, s, mask): t^v times the odd mask over t^(1/2^s), with v
# a Fraction and s minimal; a rational function is a pair (num, den) reduced
# by the gcd of num and den after every operation.


def ref_dilate(m, k):
    out, i = 0, 0
    while m:
        if m & 1:
            out |= 1 << (i << k)
        m >>= 1
        i += 1
    return out


def ref_compress(m):
    out, i = 0, 0
    while m:
        if m & 1:
            if i & 1:
                return None
            out |= 1 << (i >> 1)
        m >>= 1
        i += 1
    return out


def ref_divmod(a, b):
    q = 0
    while a.bit_length() >= b.bit_length():
        shift = a.bit_length() - b.bit_length()
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return a


def ref_clmul(a, b):
    out, shift = 0, 0
    while b:
        if b & 1:
            out ^= a << shift
        b >>= 1
        shift += 1
    return out


def ref_norm(v, s, mask):
    if not mask:
        return (F(0), 0, 0)
    tz = (mask & -mask).bit_length() - 1
    v, mask = v + F(tz, 1 << s), mask >> tz
    while s > 0 and ref_compress(mask) is not None:
        mask, s = ref_compress(mask), s - 1
    return (v, s, mask)


def ref_poly(exps):
    live = sorted(e for e in set(exps))
    if not live:
        return (F(0), 0, 0)
    v = live[0]
    s = max((e - v).denominator.bit_length() - 1 for e in live)
    return ref_norm(v, s, sum(1 << int((e - v) * (1 << s)) for e in live))


def ref_padd(p, q):
    if not p[2]:
        return q
    if not q[2]:
        return p
    v = min(p[0], q[0])
    s = max(p[1], q[1], *((x[0] - v).denominator.bit_length() - 1
                          for x in (p, q)))
    m = [ref_dilate(x[2], s - x[1]) << int((x[0] - v) * (1 << s))
         for x in (p, q)]
    return ref_norm(v, s, m[0] ^ m[1])


def ref_pmul(p, q):
    if not p[2] or not q[2]:
        return (F(0), 0, 0)
    s = max(p[1], q[1])
    return ref_norm(p[0] + q[0], s, ref_clmul(ref_dilate(p[2], s - p[1]),
                                              ref_dilate(q[2], s - q[1])))


def ref_psquare(p):
    return ref_norm(2 * p[0], p[1], ref_dilate(p[2], 1))


ONE = (F(0), 0, 1)


def ref_reduce(num, den):
    """The gcd-of-products constructor: num/den in lowest terms."""
    if not num[2]:
        return ((F(0), 0, 0), ONE)
    s = max(num[1], den[1])
    mn, md = ref_dilate(num[2], s - num[1]), ref_dilate(den[2], s - den[1])
    g = ref_gcd(mn, md)
    return (ref_norm(num[0] - den[0], s, ref_divmod(mn, g)[0]),
            ref_norm(F(0), s, ref_divmod(md, g)[0]))


def ref_mul(x, y):
    return ref_reduce(ref_pmul(x[0], y[0]), ref_pmul(x[1], y[1]))


def ref_add(x, y):
    return ref_reduce(ref_padd(ref_pmul(x[0], y[1]), ref_pmul(y[0], x[1])),
                      ref_pmul(x[1], y[1]))


def ref_square(x):
    return ref_reduce(ref_psquare(x[0]), ref_psquare(x[1]))


def ref_inverse(x):
    return ref_reduce(x[1], x[0])


def ref_pow(x, k):
    if k < 0:
        return ref_pow(ref_inverse(x), -k)
    out = (ONE, ONE)
    while k:
        if k & 1:
            out = ref_mul(out, x)
        x = ref_mul(x, x)
        k >>= 1
    return out


def ref_evaluate(coeffs, p):
    out = ((F(0), 0, 0), ONE)
    for (i, j), a in coeffs.items():
        out = ref_add(out, ref_mul(ref_mul(a, ref_pow(p[0], i)),
                                   ref_pow(p[1], j)))
    return out


def ref_s_wave(coeffs, p):
    Fp = ref_evaluate(coeffs, p)
    if not Fp[0][2]:
        return coeffs
    inv = ref_inverse(Fp)
    out = {}
    for (i, j), a in coeffs.items():
        b = ref_mul(ref_mul(ref_mul(ref_square(a), ref_pow(p[0], i)),
                            ref_pow(p[1], j)), inv)
        b = ref_add(a, b)
        if b[0][2]:
            out[(i, j)] = b
    return out


def ref_str(x):
    def poly_str(p):
        v, s, m = p
        if not m:
            return "0"
        exps = [v + F(i, 1 << s) for i in range(m.bit_length()) if m >> i & 1]
        return "+".join("1" if e == 0 else "t" if e == 1 else
                        f"t^{e}" if e.denominator == 1 else f"t^({e})"
                        for e in exps)
    if x[1] == ONE:
        return poly_str(x[0])
    return f"({poly_str(x[0])})/({poly_str(x[1])})"


def structure(r):
    """A GF2RatFun as the reference's (num, den) tuples."""
    return tuple((F(p.v, 1 << p.k), p.s, p.mask) for p in (r.num, r.den))


DYADIC = st.builds(lambda n, k: F(n, 2 ** k), st.integers(-8, 8),
                   st.integers(0, 3))
EXPS = st.lists(DYADIC, min_size=1, max_size=3, unique=True)
RATFUN_SPECS = st.one_of(
    st.just(([], [F(0)])),                          # zero
    st.builds(lambda q: ([q], [F(0)]), DYADIC),     # the monomial t^q
    st.tuples(EXPS, EXPS))                          # num / den


def both(spec):
    """The same rational function built by the program and the reference;
    the program's constructor is checked on the way."""
    num, den = spec
    new = GF2RatFun(GF2Poly(num), GF2Poly(den))
    ref = ref_reduce(ref_poly(num), ref_poly(den))
    assert structure(new) == ref
    return new, ref


def assert_same(new, ref):
    assert structure(new) == ref
    assert str(new) == ref_str(ref)


@settings(max_examples=300)
@given(RATFUN_SPECS, RATFUN_SPECS, st.integers(-4, 6))
def test_arithmetic_matches_gcd_of_products_reference(sa, sb, k):
    (a, ra), (b, rb) = both(sa), both(sb)
    assert_same(a * b, ref_mul(ra, rb))
    assert_same(a + b, ref_add(ra, rb))
    assert_same(a.square(), ref_square(ra))
    if not a.is_zero():
        assert_same(a.inverse(), ref_inverse(ra))
        assert_same(a.pow(k), ref_pow(ra, k))
        if not b.is_zero():
            assert_same(a / b, ref_mul(ra, ref_inverse(rb)))
    elif k >= 0:
        assert_same(a.pow(k), ref_pow(ra, k))


@settings(max_examples=200)
@given(RATFUN_SPECS, DYADIC)
def test_product_with_a_monomial_shifts_the_numerator(spec, q):
    # in both orders, equal to the general constructor's reduction of the
    # product, and computed with no gcd
    a, _ = both(spec)
    m = GF2RatFun.t(q)
    want = GF2RatFun(a.num * m.num, a.den * m.den)
    with mock.patch.object(lift2, "_poly_gcd") as gcd:
        got = [a * m, m * a]
    assert gcd.call_count == 0
    for r in got:
        assert r == want and structure(r) == structure(want)


MONOMIALS = st.builds(lambda q: ([q], [F(0)]), DYADIC)


@settings(max_examples=150)
@given(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       RATFUN_SPECS, min_size=1, max_size=4),
       st.tuples(st.one_of(MONOMIALS, st.tuples(EXPS, EXPS)),
                 st.one_of(MONOMIALS, st.tuples(EXPS, EXPS))))
def test_evaluate_and_s_wave_match_reference(specs, point):
    coeffs = {v: both(s) for v, s in specs.items()}
    Fx = LaurentPoly2({v: new for v, (new, _) in coeffs.items()})
    ref = {v: r for v, (_, r) in coeffs.items() if r[0][2]}
    p, rp = zip(*(both(s) for s in point))
    assert_same(Fx.evaluate(p), ref_evaluate(ref, rp))
    SF = s_wave(Fx, p)
    want = ref_s_wave(ref, rp)
    assert sorted(SF.coeffs) == sorted(want)
    for v, c in SF.coeffs.items():
        assert_same(c, want[v])


# -- the reference fuzz loop: Fraction draws and Fraction valuations ----------


def ref_random_gf2ratfun(rng):
    def poly():
        k = rng.randrange(1, 3)
        exps = set()
        while len(exps) < k:
            exps.add(F(rng.randrange(0, 9), 2 ** rng.randrange(0, 2)))
        return GF2Poly(exps)

    num = poly()
    den = poly() if rng.random() < 0.4 else GF2Poly.one()
    return GF2RatFun(num, den)


def ref_random_instance(rng):
    support = set()
    while len(support) < 5:
        support.add((rng.randrange(-2, 3), rng.randrange(-2, 3)))
    coeffs = {v: ref_random_gf2ratfun(rng) for v in support}
    p = (t(F(rng.randrange(-4, 9), 2 ** rng.randrange(0, 2))),
         t(F(rng.randrange(-4, 9), 2 ** rng.randrange(0, 2))))
    return LaurentPoly2(coeffs), p


def ref_trop_wave(tf, q):
    vals = sorted((c + v[0] * q[0] + v[1] * q[1], v) for v, c in tf.items())
    if len(vals) < 2 or vals[0][0] == vals[1][0]:
        return dict(tf)
    out = dict(tf)
    out[vals[0][1]] = tf[vals[0][1]] + (vals[1][0] - vals[0][0])
    return out


def ref_compare(Fx, p, SF):
    lhs = ref_trop_wave(trop(Fx), (p[0].val(), p[1].val()))
    if SF.is_zero():
        return False, (None, None, None)
    rhs = trop(SF)
    for v in sorted(set(lhs) | set(rhs)):
        if lhs.get(v) != rhs.get(v):
            return False, (v, lhs.get(v), rhs.get(v))
    return True, None


def ref_degenerate(Fx, p):
    q = (p[0].val(), p[1].val())
    vals = sorted((c + v[0] * q[0] + v[1] * q[1], v)
                  for v, c in trop(Fx).items())
    if len(vals) < 2 or vals[0][0] == vals[1][0]:
        return not Fx.evaluate(p).is_zero()
    rest = GF2RatFun.zero()
    for (i, j), a in Fx.coeffs.items():
        if (i, j) != vals[0][1]:
            rest = rest + a * p[0].pow(i) * p[1].pow(j)
    return rest.is_zero() or rest.val() != vals[1][0]


def ref_fuzz_lift(trials, seed):
    rng = random.Random(seed)
    checked = degenerate = 0
    failures = []
    while checked < trials:
        Fx, p = ref_random_instance(rng)
        if ref_degenerate(Fx, p):
            degenerate += 1
            continue
        SF = s_wave(Fx, p)
        ok, witness = ref_compare(Fx, p, SF)
        if not ok:
            failures.append((Fx.to_text(), str(p[0]), str(p[1]), witness))
        if not SF.evaluate(p).is_zero():
            failures.append((Fx.to_text(), str(p[0]), str(p[1]),
                             "S_p F (p) != 0"))
        checked += 1
    return {"trials": checked, "degenerate_skipped": degenerate,
            "failures": failures, "seed": seed}


def test_integer_draws_keep_the_fraction_draw_stream():
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        Fx, p = lift2.random_instance(rng)
        Fr, pr = ref_random_instance(ref_rng)
        assert Fx.to_text() == Fr.to_text() and Fx == Fr
        assert p == pr
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("trials, seed", [(20, s) for s in range(60)]
                         + [(300, 17), (1000, 505)])
def test_fuzz_lift_matches_the_fraction_reference(trials, seed):
    assert fuzz_lift(trials, seed) == ref_fuzz_lift(trials, seed)


def test_fuzz_lift_makes_no_fraction():
    with mock.patch.object(lift2, "Fraction", side_effect=F) as frac, \
            mock.patch.object(GF2Poly, "val", autospec=True,
                              side_effect=GF2Poly.val) as val:
        report = fuzz_lift(40, seed=17)
    assert report["trials"] == 40 and report["failures"] == []
    assert frac.call_count == 0
    assert val.call_count == 0


NONZERO = st.one_of(MONOMIALS, st.tuples(EXPS, EXPS))
F4 = {(1, 0): ([F(0)], [F(0)]), (0, 1): ([F(1)], [F(0)])}
F5 = {(1, 0): ([F(0)], [F(0)]), (0, 1): ([F(1)], [F(0)]),
      (1, 1): ([F(0)], [F(0)])}


def spec_instance(specs, point):
    Fx = LaurentPoly2({v: both(s)[0] for v, s in specs.items()})
    return Fx, tuple(both(s)[0] for s in point)


@settings(max_examples=150)
@given(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       NONZERO, min_size=1, max_size=5),
       st.tuples(NONZERO, NONZERO))
# the tie: X + tY at (t, 1), where F(p) = 0
@example(F4, (([F(1)], [F(0)]), ([F(0)], [F(0)])))
# the degenerate cancellation X + tY + XY at (t, t^2)
@example(F5, (([F(1)], [F(0)]), ([F(2)], [F(0)])))
# negative half-integer point exponents
@example({(1, 0): ([F(0)], [F(0)]), (-1, 2): ([F(1, 2)], [F(0)]),
          (0, -1): ([F(3, 2)], [F(0)])},
         (([F(-1, 2)], [F(0)]), ([F(-3, 2)], [F(0)])))
# a coefficient with a denominator: t/(1 + t^(1/2))
@example({(1, 0): ([F(1)], [F(0), F(1, 2)]), (0, 1): ([F(0)], [F(0)]),
          (-1, -1): ([F(1, 4), F(2)], [F(0)])},
         (([F(1, 2)], [F(0)]), ([F(-1)], [F(0)])))
def test_integer_valuations_match_the_fraction_rule(specs, point):
    Fx, p = spec_instance(specs, point)
    q = (p[0].val(), p[1].val())
    assert trop_wave(trop(Fx), q) == ref_trop_wave(trop(Fx), q)
    SF = s_wave(Fx, p)
    assert lift2._compare_lift(Fx, p, SF) == ref_compare(Fx, p, SF)
    assert degenerate_cancellation(Fx, p) == ref_degenerate(Fx, p)
