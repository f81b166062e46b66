"""Supercommutative polynomial layer: signs, derivatives, lowering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl import LinForm, build_root_data, finite_symbols
from uqsl.grassmann import FlagSpace, SuperPoly, basis_upto


@pytest.fixture
def sp21():
    rd = build_root_data(2, 1)
    return FlagSpace(rd, finite_symbols(rd.rank))


@pytest.fixture
def sp22():
    rd = build_root_data(2, 2)
    return FlagSpace(rd, finite_symbols(rd.rank))


def var(space, i, j):
    return SuperPoly.variable(space, i, j)


class TestSigns:
    def test_odd_anticommute(self, sp21):
        a, b = var(sp21, 1, 3), var(sp21, 2, 3)
        assert a * b == (b * a).scale(-1)

    def test_even_commute(self, sp21):
        a, b = var(sp21, 1, 2), var(sp21, 1, 3)
        assert a * b == b * a

    def test_odd_square_zero(self, sp21):
        a = var(sp21, 1, 3)
        assert (a * a).is_zero()

    def test_even_power(self, sp21):
        a = var(sp21, 1, 2)
        sq = a * a
        m = sp21.parse_monomial("x12^2")
        assert set(sq.terms) == {m}
        assert sq.terms[m] == 1

    def test_three_odd_letters(self, sp22):
        # x13, x14, x23 are all odd in (2|2): full reversal gives the
        # inversion-count sign (-1)^3
        x13, x14, x23 = var(sp22, 1, 3), var(sp22, 1, 4), var(sp22, 2, 3)
        forward = x13 * x14 * x23
        reverse = x23 * x14 * x13
        assert forward == reverse.scale(-1)


class TestDerivatives:
    def test_even_dx(self, sp21):
        a = var(sp21, 1, 2)
        cube = a * a * a
        d = cube.dx(1, 2)
        m = sp21.parse_monomial("x12^2")
        assert d.terms[m] == 3

    def test_even_lower_qint(self, sp21):
        a = var(sp21, 1, 2)
        cube = a * a * a
        low = cube.lower(1, 2)
        m = sp21.parse_monomial("x12^2")
        assert low.terms[m] == sp21.table.qint(3)

    def test_odd_left_sign(self, sp21):
        # d/dx23 (x13 x23) = -x13: one odd letter sits before x23
        prod = var(sp21, 1, 3) * var(sp21, 2, 3)
        d = prod.dx(2, 3)
        m = sp21.parse_monomial("x13")
        assert d.terms[m] == -1

    def test_odd_lower_matches_dx(self, sp21):
        prod = var(sp21, 1, 3) * var(sp21, 2, 3)
        assert prod.lower(2, 3) == prod.dx(2, 3)

    def test_vanishes_without_letter(self, sp21):
        assert var(sp21, 1, 2).dx(1, 3).is_zero()

    def test_leibniz_even(self, sp21):
        x = var(sp21, 1, 2)
        f = x * x
        g = x
        lhs = (f * g).dx(1, 2)
        rhs = f.dx(1, 2) * g + f * g.dx(1, 2)
        assert lhs == rhs


class TestDiagonal:
    def test_qshift_eigenvalue(self, sp21):
        form = LinForm.sym("l1") - 2 * LinForm.theta((1, 2))
        m = var(sp21, 1, 2)
        shifted = m.qshift(form)
        key = sp21.parse_monomial("x12")
        want = sp21.table.qpow(LinForm.sym("l1") - 2)
        assert shifted.terms[key] == want

    def test_qbracket_diag(self, sp21):
        form = LinForm.sym("l1") - 2 * LinForm.theta((1, 2))
        m = var(sp21, 1, 2)
        out = m.qbracket_diag(form)
        key = sp21.parse_monomial("x12")
        assert out.terms[key] == sp21.table.qbracket(LinForm.sym("l1") - 2)

    def test_scale_diag(self, sp21):
        m = var(sp21, 1, 3)
        out = m.scale_diag(lambda e: -1 if sum(e) % 2 else 1)
        key = sp21.parse_monomial("x13")
        assert out.terms[key] == -1


class TestParseFormat:
    @pytest.mark.parametrize("text", ["1", "x12", "x12^2*x13", "x13*x23"])
    def test_roundtrip(self, sp21, text):
        m = sp21.parse_monomial(text)
        assert sp21.format_monomial(m) == text

    def test_rejects_odd_square(self, sp21):
        with pytest.raises(ValueError):
            sp21.parse_monomial("x13^2")

    def test_rejects_unknown(self, sp21):
        with pytest.raises(ValueError):
            sp21.parse_monomial("x21")


class TestBasis:
    def test_count_21(self, sp21):
        # 1 even + 2 odd coordinates: degrees 0..4 give 16 monomials
        assert len(basis_upto(sp21, 4)) == 16
        assert basis_upto(sp21, 0) == [sp21.zero_exp()]
        with pytest.raises(ValueError):
            basis_upto(sp21, -1)

    def test_count_22(self, sp22):
        assert len(basis_upto(sp22, 3)) == 56

    def test_unique(self, sp22):
        b = basis_upto(sp22, 3)
        assert len(b) == len(set(b))

    def test_degrees(self, sp21):
        for m in basis_upto(sp21, 4):
            assert sum(m) <= 4


@st.composite
def polys(draw, space):
    p = SuperPoly(space, {})
    table = space.table
    for _ in range(draw(st.integers(0, 3))):
        exps = []
        for pos in range(space.nvars):
            cap = 1 if space.parity[pos] else 2
            exps.append(draw(st.integers(0, cap)))
        c = table.rational(draw(st.integers(-3, 3)))
        p = p + SuperPoly(space, {tuple(exps): c})
    return p


class TestAlgebraAxioms:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_associative(self, data):
        rd = build_root_data(2, 1)
        space = FlagSpace(rd, finite_symbols(rd.rank))
        a = data.draw(polys(space))
        b = data.draw(polys(space))
        c = data.draw(polys(space))
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_super_commutativity(self, data):
        rd = build_root_data(2, 1)
        space = FlagSpace(rd, finite_symbols(rd.rank))
        # homogeneous monomials: ab = (-1)^(|a||b|) ba
        a = data.draw(polys(space))
        b = data.draw(polys(space))
        for ma in a.terms:
            for mb in b.terms:
                pa = space.monomial_parity(ma)
                pb = space.monomial_parity(mb)
                left = SuperPoly(space, {ma: space.table.one()})
                right = SuperPoly(space, {mb: space.table.one()})
                lhs = left * right
                rhs = (right * left).scale(-1 if pa and pb else 1)
                assert lhs == rhs
