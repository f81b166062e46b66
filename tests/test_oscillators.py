"""Oscillator contractions, Fock states, basis enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl import LinForm, affine_symbols
from uqsl.oscillators import (
    FAMILIES,
    VACUUM,
    FockState,
    OscillatorAlgebra,
    add_term,
    apply_oscillator,
    cocycle_sign,
    enumerate_basis,
    format_state,
    k_eigenvalue,
    vec_scale,
    vec_sub,
)


@pytest.fixture
def A():
    return affine_symbols()


@pytest.fixture
def alg(A):
    return OscillatorAlgebra(A)


def num(table):
    # s = 3 means q = 9
    vals = {"q": Fraction(3)}
    primes = [5, 7, 11, 13, 17, 19, 23]
    for i, sym in enumerate(table.symbols[1:]):
        vals[sym] = Fraction(primes[i % len(primes)])
    return vals


class TestContractions:
    def test_a1_a1(self, A, alg):
        # [k+1][2] at s = 3, Gamma = 5; q^k enters as Gamma^2
        s, g = Fraction(3), Fraction(5)
        q = s * s
        want = (g**2 * q - 1 / (g**2 * q)) / (q - 1 / q) * (q + 1 / q)
        assert alg.contract_hat("a1", "a1", 1).subst_numeric(num(A)) == want

    def test_a1_a2(self, A, alg):
        # off-diagonal Cartan pairing is -[k+1]
        s, g = Fraction(3), Fraction(5)
        q = s * s
        want = -(g**2 * q - 1 / (g**2 * q)) / (q - 1 / q)
        assert alg.contract_hat("a1", "a2", 1).subst_numeric(num(A)) == want

    def test_a2_a2_degenerate(self, alg):
        for n in range(1, 4):
            assert alg.contract_hat("a2", "a2", n).is_zero()

    def test_bc_diagonal(self, A, alg):
        assert alg.contract_hat("b12", "b12", 3) == A.rational(Fraction(-1, 3))
        assert alg.contract_hat("b13", "b13", 2) == A.rational(Fraction(1, 2))
        assert alg.contract_hat("b23", "b23", 1) == 1
        assert alg.contract_hat("c12", "c12", 5) == A.rational(Fraction(1, 5))

    def test_cross_family_zero(self, alg):
        assert alg.contract_hat("c12", "b12", 1).is_zero()
        assert alg.contract_hat("b12", "b13", 2).is_zero()
        assert alg.contract_raw_hat("b23", "c12", 1).is_zero()
        assert alg.contract_raw_raw("a1", "b12", 1).is_zero()

    def test_raw_hat_b13(self, A, alg):
        # [1] * 1/1 = 1
        assert alg.contract_raw_hat("b13", "b13", 1) == A.one()

    def test_raw_hat_b12(self, A, alg):
        # [2] * (-1)/2
        assert alg.contract_raw_hat("b12", "b12", 2) == A.qint(2) * Fraction(-1, 2)

    def test_raw_raw_b12(self, A, alg):
        assert alg.contract_raw_raw("b12", "b12", 2) == (
            A.qint(2) * A.qint(2) * Fraction(-1, 2)
        )

    def test_qint_ratio_zero(self, A, alg):
        assert alg.qint_ratio(0, 3).is_zero()

    def test_qint_ratio_matches_quotient(self, A, alg):
        # [an] = ([an]/[n]) * [n] for every tabulated pair
        for a in (-3, -1, 1, 2, 4):
            for n in (1, 2, 3):
                assert alg.qint_ratio(a, n) * A.qint(n) == A.qint(a * n)

    def test_level_bracket_numeric_k(self):
        # at k = 2 the level bracket is the plain q-integer [3n]
        T = affine_symbols(k=2)
        alg = OscillatorAlgebra(T)
        for n in (1, 2):
            assert alg.level_bracket(n) == T.qint(3 * n)


fam = st.sampled_from(FAMILIES)
mode = st.integers(min_value=1, max_value=5)


class TestContractionLaws:
    @settings(max_examples=60, deadline=None)
    @given(fam, fam, mode)
    def test_symmetric(self, x, y, n):
        alg = OscillatorAlgebra(affine_symbols())
        assert alg.contract_raw_raw(x, y, n) == alg.contract_raw_raw(y, x, n)

    @settings(max_examples=60, deadline=None)
    @given(fam, fam, mode)
    def test_odd_in_mode(self, x, y, n):
        alg = OscillatorAlgebra(affine_symbols())
        assert alg.contract_raw_raw(x, y, -n) == -alg.contract_raw_raw(x, y, n)

    @settings(max_examples=60, deadline=None)
    @given(fam, fam, mode)
    def test_normalization_ladder(self, x, y, n):
        # removing one hat multiplies the pairing by [n]
        A = affine_symbols()
        alg = OscillatorAlgebra(A)
        assert alg.contract_raw_raw(x, y, n) == (
            alg.contract_raw_hat(x, y, n) * A.qint(n)
        )
        if not x.startswith("a"):
            assert alg.contract_raw_hat(x, y, n) == (
                alg.contract_hat(x, y, n) * A.qint(n)
            )


class TestFockState:
    def test_vacuum(self):
        assert VACUUM.momenta == (0, 0, 0, 0)
        assert VACUUM.occ == ()
        assert VACUUM.energy == 0

    def test_with_creation_multiplicity(self):
        s = VACUUM.with_creation("b12", 1).with_creation("b12", 1)
        assert s.occ == ((("b12", 1), 2),)
        assert s.energy == 2

    def test_with_creation_sorted(self):
        s = VACUUM.with_creation("b13", 2).with_creation("a1", 1)
        assert s.occ == ((("a1", 1), 1), (("b13", 2), 1))

    @settings(max_examples=60, deadline=None)
    @given(fam, mode)
    def test_energy_additive(self, f, m):
        base = VACUUM.with_creation("a2", 1)
        assert base.with_creation(f, m).energy == base.energy + m

    def test_format(self):
        assert format_state(VACUUM) == "m=(0,0,0,0)"
        s = FockState((0, -1, 0, 2)).with_creation("b12", 1, times=2)
        s = s.with_creation("a1", 2)
        assert format_state(s) == "m=(0,-1,0,2) a1[-2] b12[-1]^2"


class TestCocycleSign:
    def test_even_letter(self):
        # b12 and c12 never pick up signs
        assert cocycle_sign((1, 0, 0, 0), (0, 3, 5, 0)) == 1
        assert cocycle_sign((0, 0, 0, 2), (0, 1, 1, 0)) == 1

    def test_first_odd_slot(self):
        # nothing odd sits before b13
        assert cocycle_sign((0, 1, 0, 0), (4, 0, 0, 0)) == 1

    def test_crossing(self):
        assert cocycle_sign((0, 0, 1, 0), (0, 1, 0, 0)) == -1
        assert cocycle_sign((0, 0, 1, 0), (0, -1, 0, 0)) == -1
        assert cocycle_sign((0, 0, 1, 0), (0, 2, 0, 0)) == 1

    def test_double_letter(self):
        # even multiplicity crosses an even number of times
        assert cocycle_sign((0, 2, 1, 0), (0, 1, 0, 0)) == -1
        assert cocycle_sign((0, 0, 2, 0), (0, 1, 0, 0)) == 1


class TestKEigenvalue:
    def test_vacuum(self, A):
        assert k_eigenvalue(A, 1, VACUUM) == A.monomial({"W1": 1})
        assert k_eigenvalue(A, 2, VACUUM) == A.monomial({"W2": 1})

    def test_momentum_shift(self, A):
        s = FockState((1, 0, 0, 0))
        assert k_eigenvalue(A, 1, s) == A.monomial({"W1": 1, "q": -4})
        assert k_eigenvalue(A, 2, s) == A.monomial({"W2": 1, "q": 2})

    def test_occ_invisible(self, A):
        s = FockState((0, 1, -1, 2)).with_creation("b23", 2)
        bare = FockState((0, 1, -1, 2))
        assert k_eigenvalue(A, 1, s) == k_eigenvalue(A, 1, bare)


class TestApplyOscillator:
    def test_zero_mode_rejected(self, A, alg):
        with pytest.raises(ValueError):
            apply_oscillator(alg, {"a1": A.one()}, 0, VACUUM)

    def test_creation(self, A, alg):
        out = apply_oscillator(alg, {"a1": A.one()}, -2, VACUUM)
        assert out == {VACUUM.with_creation("a1", 2): A.qint(2)}

    def test_roundtrip(self, A, alg):
        # a1_2 a1hat_-2 |0> = [2] [2(k+1)] [4]/[2] / 2 |0>
        ((up, c),) = apply_oscillator(alg, {"a1": A.one()}, -2, VACUUM).items()
        out = apply_oscillator(alg, {"a1": A.one()}, 2, up)
        want = alg.level_bracket(2) * A.qint(4) * Fraction(1, 2)
        assert {s: c * v for s, v in out.items()} == {VACUUM: want}

    def test_mode_mismatch(self, A, alg):
        (up,) = apply_oscillator(alg, {"b12": A.one()}, -2, VACUUM)
        assert apply_oscillator(alg, {"b12": A.one()}, 1, up) == {}

    def test_family_mismatch(self, A, alg):
        (up,) = apply_oscillator(alg, {"b12": A.one()}, -1, VACUUM)
        assert apply_oscillator(alg, {"c12": A.one()}, 1, up) == {}

    def test_multiplicity_factor(self, A, alg):
        two = VACUUM.with_creation("b13", 1, times=2)
        out = apply_oscillator(alg, {"b13": A.one()}, 1, two)
        one = VACUUM.with_creation("b13", 1)
        assert out == {one: alg.contract_raw_hat("b13", "b13", 1) * 2}


class TestVecHelpers:
    def test_add_term_cancels(self, A):
        vec = {VACUUM: A.one()}
        add_term(vec, VACUUM, -A.one())
        assert vec == {}

    def test_add_term_skips_zero(self, A):
        vec = {}
        add_term(vec, VACUUM, A.zero())
        assert vec == {}

    def test_sub_self(self, A):
        vec = {VACUUM: A.qint(2), FockState((1, 0, 0, 0)): A.one()}
        assert vec_sub(vec, vec) == {}

    def test_scale(self, A):
        vec = {VACUUM: A.one()}
        assert vec_scale(vec, A.zero()) == {}
        assert vec_scale(vec, A.qint(2)) == {VACUUM: A.qint(2)}


class TestBasis:
    def test_counts_radius_zero(self):
        assert len(enumerate_basis(0)) == 1
        assert len(enumerate_basis(1)) == 7
        assert len(enumerate_basis(2)) == 34

    def test_momentum_windows(self):
        # l1 ball of radius 1 has 9 lattice points, box has 81
        assert len(enumerate_basis(1, radius=1, norm="l1")) == 9 * 7
        assert len(enumerate_basis(1, radius=1, norm="box")) == 81 * 7
        for E_cut, radius in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                enumerate_basis(E_cut, radius)

    def test_vacuum_first(self):
        assert enumerate_basis(2)[0] == VACUUM

    def test_energy_bound_and_unique(self):
        basis = enumerate_basis(2, radius=1)
        assert len(set(basis)) == len(basis)
        assert all(s.energy <= 2 for s in basis)

    def test_deterministic(self):
        assert enumerate_basis(2, radius=1) == enumerate_basis(2, radius=1)

    def test_rejects_norm(self):
        with pytest.raises(ValueError):
            enumerate_basis(1, norm="l2")
