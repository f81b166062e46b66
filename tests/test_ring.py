"""Ring arithmetic: q-integers, brackets, packing, canonical forms."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqsl import (
    LinForm,
    RingElem,
    RingError,
    affine_symbols,
    bracket_symbols,
    finite_symbols,
    verify_bracket_identity,
)
from uqsl.affine import AffineContext
from uqsl.report import numeric_assignments
from uqsl.ring import _div_qdiff, _mul_by_qdiff


@pytest.fixture
def T():
    return finite_symbols(2)


def num(table):
    # s = 3 means q = 9
    vals = {"q": Fraction(3)}
    primes = [5, 7, 11, 13, 17, 19, 23]
    for i, sym in enumerate(table.symbols[1:]):
        vals[sym] = Fraction(primes[i % len(primes)])
    return vals


class TestQInt:
    def test_zero_one(self, T):
        assert T.qint(0).is_zero()
        assert T.qint(1) == 1

    def test_two_value(self, T):
        # [2] = q + q^-1 = 9 + 1/9 = 82/9 at s = 3
        v = T.qint(2).subst_numeric(num(T))
        assert v == Fraction(82, 9)

    def test_negation(self, T):
        for n in range(-5, 6):
            assert T.qint(-n) == -T.qint(n)

    def test_matches_bracket(self, T):
        for n in range(-6, 7):
            assert T.qint(n) == T.qbracket(LinForm(n))


class TestQPow:
    def test_formal_weight(self, T):
        el = T.qpow(LinForm.sym("l1"))
        assert el == T.monomial({"L1": 1})

    def test_level_half_integer(self):
        A = affine_symbols()
        # q^(k/2 + 2) = Gamma * q^2
        el = A.qpow(LinForm(2, {"k": Fraction(1, 2)}))
        assert el == A.monomial({"G": 1, "q": 4})

    def test_numeric_level(self):
        A = affine_symbols(k=3)
        el = A.qpow(LinForm(0, {"k": 1}))
        assert el == A.monomial({"q": 6})

    def test_rejects_fractional(self, T):
        with pytest.raises(RingError):
            T.qpow(LinForm(0, {"l1": Fraction(1, 2)}))

    def test_rejects_theta(self, T):
        with pytest.raises(RingError):
            T.qpow(LinForm.theta((1, 2)))

    def test_inverse(self, T):
        el = T.qpow(LinForm.sym("l1"))
        assert el * el.inverse() == 1


class TestArith:
    def test_display_sum(self, T):
        el = T.monomial({"q": 4}) + T.monomial({"q": -4})
        assert str(el) == "q^2 + q^-2"

    def test_display_weight(self, T):
        el = T.monomial({"L1": 1, "q": -4})
        assert str(el) == "L1*q^-2"

    def test_display_half(self, T):
        assert str(T.monomial({"q": 3})) == "q^(3/2)"

    def test_display_zero(self, T):
        assert str(T.zero()) == "0"

    def test_bracket_times_qdiff(self, T):
        # (q - q^-1)[2] = q^2 - q^-2
        el = T.qdiff() * T.qint(2)
        want = T.monomial({"q": 4}) - T.monomial({"q": -4})
        assert el == want

    def test_denominator_alignment(self, T):
        el = T.qbracket(LinForm.sym("l1")) + T.qint(2)
        v = el.subst_numeric(num(T))
        s, L = Fraction(3), Fraction(5)
        q = s * s
        assert v == (L - 1 / L) / (q - 1 / q) + q + 1 / q

    def test_canonical_divides(self, T):
        # (q^4 - 1)/(q - q^-1): the quotient has a term at an exponent the
        # dividend lacks
        for frac, want in ((T.qbracket(LinForm.sym("l1")) * T.qdiff(), "L1 - L1^-1"),
                           (RingElem(T, {8: 1, 0: -1}, 1), "q^3 + q")):
            c = frac.canonical()
            assert c.dpow == 0
            assert c == frac
            assert str(frac) == want

    def test_canonical_idempotent(self, T):
        el = T.qbracket(LinForm.sym("l1")) * T.qbracket(LinForm.sym("l2"))
        c = el.canonical()
        assert c.canonical().dpow == c.dpow
        assert c == el

    def test_pow(self, T):
        el = T.qint(2)
        assert el ** 3 == el * el * el
        mono = T.monomial({"L1": 2})
        assert mono ** -2 == T.monomial({"L1": -4})

    def test_table_mismatch(self, T):
        with pytest.raises(RingError):
            T.one() + finite_symbols(3).one()

    def test_subst_requires_all(self, T):
        with pytest.raises(RingError):
            T.one().subst_numeric({"q": Fraction(3)})

    def test_subst_rejects_denominator_root(self, T):
        el = T.qbracket(LinForm.sym("l1"))
        with pytest.raises(RingError):
            el.subst_numeric({"q": Fraction(1), "L1": Fraction(5), "L2": Fraction(7)})


class TestBracketIdentity:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_holds(self, n):
        assert verify_bracket_identity(n)

    def test_perturbed_fails(self):
        # same combination with one exponent sign flipped must not collapse
        table = bracket_symbols(1)
        a, b = LinForm.sym("a"), LinForm.sym("b1")
        lhs = table.qbracket(a) * table.qpow(b) + table.qbracket(b) * table.qpow(a)
        assert lhs != table.qbracket(a + b)


exps = st.integers(min_value=-8, max_value=8)


@st.composite
def elements(draw):
    T = finite_symbols(2)
    el = T.zero()
    for _ in range(draw(st.integers(0, 4))):
        c = draw(st.integers(-5, 5))
        e = {"q": draw(exps), "L1": draw(exps), "L2": draw(exps)}
        el = el + T.monomial(e, c)
    if draw(st.booleans()):
        el = el * T.qbracket(LinForm.sym("l1"))
    return el


@st.composite
def chains(draw):
    """Denominator-free elements over few L1 exponents, so that several
    terms share their non-q exponents and their q-exponent mod 2."""
    T = finite_symbols(1)
    el = T.zero()
    for _ in range(draw(st.integers(0, 5))):
        e = {"q": draw(exps), "L1": draw(st.integers(-1, 1))}
        el = el + T.monomial(e, draw(st.integers(-5, 5)))
    return el


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(elements(), elements(), elements())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(elements(), elements())
    def test_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(elements())
    def test_sub_self(self, a):
        assert (a - a).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(elements())
    def test_canonical_preserves(self, a):
        assert a.canonical() == a

    @settings(max_examples=100, deadline=None)
    @given(chains(), st.integers(0, 3), st.integers(0, 3))
    def test_canonical_is_normal_form(self, x, k, j):
        # x (q - q^-1)^k / (q - q^-1)^(k+j) and x / (q - q^-1)^j are one
        # value, so they must reach one normal form and render alike
        T = x.table
        y = RingElem(T, _mul_by_qdiff(x.terms, k), k + j)
        b = RingElem(T, x.terms, j)
        assert y == b
        cy, cb = y.canonical(), b.canonical()
        assert (cy.terms, cy.dpow) == (cb.terms, cb.dpow)
        assert str(y) == str(b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-9, 9), st.integers(-9, 9))
    def test_qint_addition(self, a, b):
        T = finite_symbols(1)
        lhs = T.qbracket(LinForm(a + b))
        rhs = T.qint(a) * T.qpow(LinForm(b)) + T.qint(b) * T.qpow(LinForm(-a))
        assert lhs == rhs


class TestPacking:
    @settings(max_examples=80, deadline=None)
    @given(exps, exps, exps)
    def test_roundtrip(self, a, b, c):
        T = finite_symbols(2)
        exp = {}
        if a:
            exp["q"] = a
        if b:
            exp["L1"] = b
        if c:
            exp["L2"] = c
        assert T.unpack(T.pack(exp)) == exp

    def test_overflow_guard(self):
        T = finite_symbols(1)
        with pytest.raises(RingError):
            T.pack({"q": 1 << 23})


def reference_value(el, vals):
    """The per-term Fraction evaluation: each term's coefficient c/den times
    its symbols' powers, summed, then divided by (q - q^-1)^dpow."""
    total = Fraction(0)
    for key, c in el.terms.items():
        v = Fraction(c, el.den)
        for sym, e in el.table.unpack(key).items():
            v *= Fraction(vals[sym]) ** e
        total += v
    s2 = Fraction(vals["q"]) ** 2
    return total / (s2 - 1 / s2) ** el.dpow


EVAL_TABLES = (affine_symbols(), finite_symbols(3))
wide_exps = st.integers(min_value=-40, max_value=40)
coeffs = st.one_of(st.integers(-10**6, 10**6),
                   st.fractions(-1000, 1000, max_denominator=10**4))
values = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).filter(bool)


@st.composite
def evaluations(draw):
    T = draw(st.sampled_from(EVAL_TABLES))
    el = T.zero()
    for _ in range(draw(st.integers(0, 6))):
        exps = {sym: draw(wide_exps) for sym in T.symbols}
        el = el + T.monomial(exps, draw(coeffs))
    el = el * T.qdiff_inv(draw(st.integers(0, 3)))
    vals = {sym: draw(values) for sym in T.symbols}
    if el.dpow:
        vals["q"] = draw(values.filter(lambda v: v not in (1, -1)))
    return el, vals


class TestSubstNumeric:
    @settings(max_examples=300, deadline=None)
    @given(evaluations())
    def test_matches_reference(self, case):
        el, vals = case
        got = el.subst_numeric(vals)
        assert type(got) is Fraction
        assert got == reference_value(el, vals)

    def test_int_assignment_gives_fraction(self, T):
        v = T.qint(2).subst_numeric({"q": 3, "L1": 5, "L2": 7})
        assert type(v) is Fraction and v == Fraction(82, 9)

    def test_missing_symbol(self):
        A = affine_symbols()
        vals = {sym: 2 for sym in A.symbols if sym != "e21"}
        with pytest.raises(RingError, match="no assignment for symbol e21"):
            A.one().subst_numeric(vals)

    def test_zero_value(self, T):
        with pytest.raises(RingError, match="zero assignment for invertible symbol L2"):
            T.one().subst_numeric({"q": 3, "L1": 5, "L2": Fraction(0)})

    def test_inexact_value(self, T):
        with pytest.raises(RingError, match="not an exact rational"):
            T.one().subst_numeric({"q": 3, "L1": 5.0, "L2": 7})

    @pytest.mark.parametrize("s", [1, -1, Fraction(-1)])
    def test_unit_s(self, T, s):
        el = T.qbracket(LinForm.sym("l1"))
        vals = {"q": s, "L1": Fraction(5), "L2": Fraction(7)}
        with pytest.raises(RingError, match="q = 1 assignment hits the denominator"):
            el.subst_numeric(vals)
        # without a denominator s = +-1 is an ordinary point
        assert (el * T.qdiff()).canonical().subst_numeric(vals) == Fraction(24, 5)
        assert T.qint(2).subst_numeric(vals) == 2

    def test_read_point(self):
        A = affine_symbols()
        vals = num(A)
        point = A.numeric_point(vals)
        el = A.qbracket(LinForm.sym("w1")) * A.monomial({"G": 3, "e21": -2}, Fraction(2, 7))
        assert el.subst_numeric(point) == el.subst_numeric(vals) == reference_value(el, vals)
        with pytest.raises(RingError, match="assignment read for another symbol table"):
            finite_symbols(2).one().subst_numeric(point)


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


@st.composite
def exponent_sums(draw):
    """(table, [(exponent dict, numerator)], den, dpow): the value
    sum(numerator * monomial) / (den (q - q^-1)^dpow)."""
    T = draw(st.sampled_from(EVAL_TABLES))
    terms = [({sym: draw(st.integers(-6, 6)) for sym in T.symbols}, draw(st.integers(-50, 50)))
             for _ in range(draw(st.integers(0, 5)))]
    return T, terms, draw(st.integers(1, 30)), draw(st.integers(0, 3))


class TestSympyRoute:
    """subst_numeric against sympy, which builds each value from the same
    exponent dicts without the ring's packed keys or normal form."""

    @settings(max_examples=40, deadline=None)
    @given(exponent_sums(), st.integers(0, 99))
    def test_matches_sympy(self, sp, case, seed):
        T, terms, den, dpow = case
        el = T.zero()
        for exps, n in terms:
            el = el + T.monomial(exps, Fraction(n, den))
        el = el * T.qdiff_inv(dpow)
        syms = {sym: sp.Symbol("s" if sym == "q" else sym) for sym in T.symbols}
        s = syms["q"]
        expr = sp.Add(*[n * sp.Mul(*[syms[sym] ** e for sym, e in exps.items()])
                        for exps, n in terms])
        expr = expr / (den * (s ** 2 - s ** -2) ** dpow)
        for vals in numeric_assignments(seed, "sympy", T):
            got = el.subst_numeric(T.numeric_point(vals))
            want = expr.subs({syms[sym]: sp.Rational(v.numerator, v.denominator)
                              for sym, v in vals.items()})
            assert sp.Rational(got.numerator, got.denominator) == want

    # the Cartan matrix of sl(2|1), distinguished simple roots, written out
    # here so the closed form below owes nothing to uqsl.structure
    CARTAN_21 = {(1, 1): 2, (1, 2): -1, (2, 1): -1, (2, 2): 0}

    @pytest.mark.parametrize("k", [None, -2, 0, 2], ids=lambda k: "formal" if k is None else f"k={k}")
    def test_eq8_central_scalars(self, sp, k):
        """[H^i_n, H^j_-n] on the vacuum, summed from the raw contractions
        (h_scalar), and eq8's right side, against the closed form
        (1/n)[a_ij n](gamma^n - gamma^-n)/(q - q^-1) built in sympy."""
        ctx = AffineContext(k=k)
        T = ctx.table
        s, G = sp.Symbol("s"), sp.Symbol("G")
        q = s ** 2
        gamma = G ** 2 if k is None else q ** k  # Gamma = q^(k/2)
        for (i, j), a in self.CARTAN_21.items():
            for n in [x for m in range(1, 7) for x in (m, -m)]:
                expr = (sp.Rational(1, n) * (q ** (a * n) - q ** (-a * n)) / (q - 1 / q)
                        * (gamma ** n - gamma ** -n) / (q - 1 / q))
                rel_id = f"eq8-scalar.i={i}.j={j}.n={n}"
                for vals in numeric_assignments(0, rel_id, T):
                    point = T.numeric_point(vals)
                    want = expr.subs({s: sp.Rational(vals["q"]), G: sp.Rational(vals.get("G", 1))})
                    for el in (ctx.h_scalar(i, j, n), ctx.eq8_rhs_scalar(i, j, n)):
                        assert sp.Rational(el.subst_numeric(point)) == want, (i, j, n)


class TestUnitProduct:
    """A product with an operand stored as exactly 1 ({0: 1}, den 1, dpow
    0) returns the other operand; no other element takes that path."""

    @settings(max_examples=60, deadline=None)
    @given(elements())
    @example(finite_symbols(2).one())
    def test_one_returns_the_other_operand(self, x):
        one = x.table.one()
        products = (x * one, one * x, one * one * x)

        def stored(el):
            return el.terms, el.den, el.dpow

        if stored(x) == stored(one):
            # both operands stored as 1: no __mul__ returns x itself for all
            # three products, so each is stored as x, and x * one is x
            assert all(stored(got) == stored(x) for got in products)
            assert x * one is x
        else:
            for got in products:
                assert got is x

    @settings(max_examples=60, deadline=None)
    @given(elements().filter(lambda x: not x.is_zero()))
    def test_other_units_multiply(self, x):
        T = x.table
        half = T.rational(Fraction(1, 2))
        padded = T.qdiff_inv()  # {0: 1} over (q - q^-1)
        value_one = T.qdiff() * T.qdiff_inv()  # 1, stored as (q - q^-1)/(q - q^-1)
        assert (half.terms, half.den, padded.terms, padded.dpow) == ({0: 1}, 2, {0: 1}, 1)
        for a, b in ((x, half), (half, x)):
            got = a * b
            assert got == x * Fraction(1, 2) and got != x
        for a, b in ((x, padded), (padded, x)):
            got = a * b
            assert got.dpow == x.dpow + 1 and list(got.terms.items()) == list(x.terms.items())
        for a, b in ((x, value_one), (value_one, x)):
            got = a * b
            assert got == x and got.dpow == x.dpow + 1 and got is not x


class TestCoefficientTypes:
    def test_integral_rational_is_int(self, T):
        c = T.rational(Fraction(6, 3)).terms[0]
        assert type(c) is int and c == 2

    def test_inverse_is_exact(self, T):
        inv = T.monomial({"L1": 2}, 3).inverse()
        (c,) = inv.terms.values()
        assert type(c) is int and Fraction(c, inv.den) == Fraction(1, 3)
        inv = T.monomial({"L1": 2}, Fraction(-2, 3)).inverse()
        (c,) = inv.terms.values()
        assert (c, inv.den) == (-3, 2)
        inv = T.monomial({"L1": 2}, -1).inverse()
        (c,) = inv.terms.values()
        assert type(c) is int and (c, inv.den) == (-1, 1)

    @settings(max_examples=60, deadline=None)
    @given(elements(), elements(), st.integers(-3, 3),
           st.fractions(-5, 5, max_denominator=5).filter(bool))
    def test_no_float(self, a, b, n, r):
        T = a.table
        mono = T.monomial({"L1": n, "q": 1}, r)
        for el in (a + b, a - b, a * b, a * r, a + r, b ** 2, mono ** n,
                   mono.inverse(), a * mono.inverse()):
            assert all(type(c) in (int, Fraction) for c in el.terms.values())


# -- the Fraction-coefficient element, kept as the reference ------------------


def _old_mul_terms(t1: dict, t2: dict) -> dict:
    if not t1 or not t2:
        return {}
    if len(t2) == 1:
        ((k2, c2),) = t2.items()
        if c2 == 1:
            return {k + k2: c for k, c in t1.items()}
        return {k + k2: c * c2 for k, c in t1.items()}
    if len(t1) == 1:
        ((k1, c1),) = t1.items()
        if c1 == 1:
            return {k1 + k: c for k, c in t2.items()}
        return {k1 + k: c1 * c for k, c in t2.items()}
    out: dict = {}
    get = out.get
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            k = k1 + k2
            v = get(k, 0) + c1 * c2
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


class OldElem:
    """terms/(q - q^-1)^dpow with int or Fraction coefficients, as RingElem
    computed before it kept integer numerators over one denominator.  den
    is always 1, so reference_value evaluates it as it does a RingElem."""

    den = 1

    def __init__(self, table, terms, dpow):
        self.table, self.terms, self.dpow = table, terms, dpow

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = OldElem(self.table, {0: other} if other else {}, 0)
        a, b = self, other
        if a.dpow < b.dpow:
            a, b = b, a
        bt = b.terms
        if a.dpow > b.dpow:
            bt = _mul_by_qdiff(bt, a.dpow - b.dpow)
        out = dict(a.terms)
        get = out.get
        for k, c in bt.items():
            v = get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return OldElem(a.table, out, a.dpow)

    def __neg__(self):
        return OldElem(self.table, {k: -c for k, c in self.terms.items()}, self.dpow)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return OldElem(self.table, {}, 0)
            return OldElem(self.table, {k: v * other for k, v in self.terms.items()}, self.dpow)
        return OldElem(self.table, _old_mul_terms(self.terms, other.terms),
                       self.dpow + other.dpow)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = OldElem(self.table, {0: 1}, 0)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self):
        ((k, c),) = self.terms.items()
        return OldElem(self.table, {-k: 1 / Fraction(c)}, 0)

    def canonical(self):
        terms, dpow = self.terms, self.dpow
        while dpow > 0 and terms:
            quot = _div_qdiff(terms)
            if quot is None:
                break
            terms, dpow = quot, dpow - 1
        return OldElem(self.table, terms, dpow if terms else 0)

    def __str__(self):
        canon = self.canonical()
        if not canon.terms:
            return "0"
        keys = sorted(canon.terms, key=canon.table._exp_vector, reverse=True)
        parts = []
        for k in keys:
            c = canon.terms[k]
            body = RingElem._term_str(canon, k)
            mag = abs(c)
            cs = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
            parts.append(("-" if c < 0 else "+", cs))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        if canon.dpow:
            denom = "(q - q^-1)" + (f"^{canon.dpow}" if canon.dpow > 1 else "")
            return f"({text}) / {denom}"
        return text


def assert_lowest_terms(el):
    assert all(type(c) is int for c in el.terms.values())
    assert type(el.den) is int and el.den >= 1
    assert gcd(el.den, *el.terms.values()) == 1


def assert_same(el, old):
    """el holds old's value term for term, in lowest terms."""
    assert_lowest_terms(el)
    assert el.dpow == old.dpow
    assert {k: Fraction(c, el.den) for k, c in el.terms.items()} == old.terms


rationals = st.fractions(-12, 12, max_denominator=12)
exps_small = st.integers(-4, 4)


@st.composite
def pairs(draw):
    """One element built twice, from the same monomials and denominator
    power: as a RingElem and as the reference."""
    T = finite_symbols(2)
    el, old = T.zero(), OldElem(T, {}, 0)
    for _ in range(draw(st.integers(0, 4))):
        exps = {"q": draw(exps_small), "L1": draw(st.integers(-2, 2)), "L2": 0}
        c = draw(rationals)
        el = el + T.monomial(exps, c)
        old = old + OldElem(T, {T.pack(exps): c} if c else {}, 0)
    d = draw(st.integers(0, 2))
    return el * T.qdiff_inv(d), old * OldElem(T, {0: 1}, d)


@st.composite
def monomial_pairs(draw):
    T = finite_symbols(2)
    exps = {"q": draw(exps_small), "L1": draw(exps_small)}
    c = draw(rationals.filter(bool))
    return T.monomial(exps, c), OldElem(T, {T.pack(exps): c}, 0)


class TestIntegerNumerators:
    """Every operation on integer numerators over one denominator gives the
    Fraction-coefficient reference's value term for term, in lowest terms."""

    @settings(max_examples=150, deadline=None)
    @given(pairs(), pairs(), rationals, st.integers(0, 3))
    def test_arithmetic(self, a, b, r, n):
        (x, ox), (y, oy) = a, b
        for el, old in ((x, ox), (x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
                        (-x, -ox), (x * r, ox * r), (x + r, ox + r), (x - r, ox - r),
                        (x ** n, ox ** n), (x * y * y, ox * oy * oy)):
            assert_same(el, old)
            assert_same(el.canonical(), old.canonical())
            assert str(el) == str(old)

    @settings(max_examples=100, deadline=None)
    @given(monomial_pairs(), pairs(), st.integers(-3, 3))
    def test_inverse_and_powers(self, m, a, n):
        (mono, om), (x, ox) = m, a
        for el, old in ((mono.inverse(), om.inverse()), (mono ** n, om ** n),
                        (x * mono.inverse(), ox * om.inverse()),
                        (mono * mono.inverse(), om * om.inverse())):
            assert_same(el, old)
            assert str(el) == str(old)
        assert mono * mono.inverse() == 1

    @settings(max_examples=100, deadline=None)
    @given(pairs(), pairs(), st.tuples(*[values.filter(lambda v: v not in (1, -1))] * 3))
    def test_subst_numeric(self, a, b, point):
        (x, ox), (y, oy) = a, b
        vals = dict(zip(("q", "L1", "L2"), point))
        for el, old in ((x, ox), (x * y, ox * oy), (x - y, ox - oy)):
            got = el.subst_numeric(vals)
            assert type(got) is Fraction
            assert got == reference_value(old, vals) == reference_value(el, vals)

    def test_zero_has_denominator_one(self, T):
        half = T.rational(Fraction(1, 2))
        for z in (half - half, half * 0, (half - half).canonical(), T.rational(0)):
            assert z.is_zero() and z.den == 1
