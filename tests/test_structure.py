"""Root data: Cartan matrices, parities, bracket signs."""

import pytest

from uqsl import LinForm, build_root_data, graded_bracket_sign


CARTAN_CASES = {
    (2, 1): ((2, -1), (-1, 0)),
    (2, 0): ((2,),),
    (2, 2): ((2, -1, 0), (-1, 0, 1), (0, 1, -2)),
    (1, 2): ((0, 1), (1, -2)),
    (3, 1): ((2, -1, 0), (-1, 2, -1), (0, -1, 0)),
    (1, 3): ((0, 1, 0), (1, -2, 1), (0, 1, -2)),
    (3, 0): ((2, -1), (-1, 2)),
}


@pytest.mark.parametrize("shape,matrix", sorted(CARTAN_CASES.items()))
def test_cartan_matrix(shape, matrix):
    assert build_root_data(*shape).cartan_matrix() == matrix


@pytest.mark.parametrize("shape", sorted(CARTAN_CASES))
def test_cartan_symmetric(shape):
    rd = build_root_data(*shape)
    for i in range(1, rd.rank + 1):
        for j in range(1, rd.rank + 1):
            assert rd.cartan(i, j) == rd.cartan(j, i)


def test_nu_signs():
    rd = build_root_data(2, 1)
    assert [rd.nu(i) for i in (1, 2, 3)] == [1, 1, -1]
    with pytest.raises(ValueError):
        rd.nu(4)


def test_gen_parity():
    rd = build_root_data(2, 2)
    assert [rd.gen_parity(i) for i in (1, 2, 3)] == [0, 1, 0]
    assert build_root_data(3, 0).gen_parity(2) == 0


def test_var_parity():
    rd = build_root_data(2, 1)
    assert rd.var_parity(1, 2) == 0
    assert rd.var_parity(1, 3) == 1
    assert rd.var_parity(2, 3) == 1
    with pytest.raises(ValueError):
        rd.var_parity(2, 2)


def test_dual_coxeter_shift():
    assert build_root_data(2, 1).dual_coxeter_shift == 1
    assert build_root_data(2, 2).dual_coxeter_shift == 0


def test_bracket_sign():
    assert graded_bracket_sign(0, 0) == 1
    assert graded_bracket_sign(1, 0) == 1
    assert graded_bracket_sign(0, 1) == 1
    assert graded_bracket_sign(1, 1) == -1


def test_weight_table():
    # (h_i, eps_l - eps_m) on (2|1), nu = (1, 1, -1): x12 = alpha_1,
    # x13 = alpha_1 + alpha_2, x23 = alpha_2, with a_11 = 2, a_12 = -1, a_22 = 0
    rd = build_root_data(2, 1)
    want = {1: {(1, 2): 2, (1, 3): 1, (2, 3): -1},
            2: {(1, 2): -1, (1, 3): -1, (2, 3): 0}}
    for i, row in want.items():
        for (l, m), w in row.items():
            assert rd.weight(i, l, m) == w, (i, l, m)
    for i in (0, 3):
        with pytest.raises(ValueError):
            rd.weight(i, 1, 2)


def test_bad_shapes():
    with pytest.raises(ValueError):
        build_root_data(0, 2)
    with pytest.raises(ValueError):
        build_root_data(1, 0)


# The (2|1) shape tables of the affine realization, derived from
# build_root_data(2, 1); the expected values are the hand-written tables
# they replaced.

def test_shape_tables():
    from uqsl import oscillators as osc
    from uqsl.currents import A_FAMS, CURRENT_PARITY

    assert (osc.ROOT.M, osc.ROOT.N) == (2, 1)
    assert A_FAMS == ("a1", "a2")
    assert osc.FAMILIES == ("a1", "a2", "b12", "b13", "b23", "c12")
    assert osc.ODD_SLOT == (False, True, True, False)
    assert osc.C0 == {"b12": -1, "b13": 1, "b23": 1, "c12": 1}
    assert osc.G_SHIFT == 1
    assert osc.K_EXPONENTS == {1: ((2, 1, -1, 0), (1, 0)), 2: ((-1, -1, 0, 0), (0, 1))}
    assert CURRENT_PARITY == {"E1": 0, "E2": 1, "F1": 0, "F2": 1,
                              "psi1+": 0, "psi1-": 0, "psi2+": 0, "psi2-": 0}


def test_contract_hat_signs():
    from fractions import Fraction

    from uqsl import affine_symbols
    from uqsl.oscillators import OscillatorAlgebra

    alg = OscillatorAlgebra(affine_symbols())
    T = alg.table
    cartan = {("a1", "a1"): 2, ("a1", "a2"): -1, ("a2", "a1"): -1, ("a2", "a2"): 0}
    bc_sign = {"b12": -1, "b13": 1, "b23": 1, "c12": 1}
    for n in (1, 2, 3):
        for (x, y), a in cartan.items():
            want = alg.level_bracket(n) * alg.qint_ratio(a, n) * Fraction(1, n)
            assert alg.contract_hat(x, y, n) == want, (x, y, n)
        for x, sign in bc_sign.items():
            assert alg.contract_hat(x, x, n) == T.rational(Fraction(sign, n))
            assert alg.contract_hat(x, "a1", n).is_zero()
        assert alg.contract_hat("b13", "b23", n).is_zero()
    # [a1_1, a2hat_-1] = -[k+1]; [a1_1, a1hat_-1] = [k+1](q + q^-1)
    k1 = T.qbracket(LinForm(1, {"k": 1}))
    assert alg.contract_hat("a1", "a2", 1) == -k1
    assert alg.contract_hat("a1", "a1", 1) == k1 * (T.qpow(LinForm(1)) + T.qpow(LinForm(-1)))


def test_affine_pair_lists():
    from uqsl.affine import EQ11_PAIRS, EQ12_PAIRS, EQ13_PAIRS

    assert EQ11_PAIRS == ((1, 1), (1, 2), (2, 2))
    assert EQ12_PAIRS == ((2, 2),)
    assert EQ13_PAIRS == ((1, 2),)


# the eq4 (cubic Serre) node pairs check_chevalley ran before serre_pairs
# existed: i != j, |a_ij| = 1, i != M
SERRE_PAIRS = {
    (2, 1): ((1, 2),),
    (2, 2): ((1, 2), (3, 2)),
    (3, 1): ((1, 2), (2, 1), (2, 3)),
    (2, 0): (),
    (3, 0): ((1, 2), (2, 1)),
    (1, 2): ((2, 1),),
}


@pytest.mark.parametrize("shape,pairs", sorted(SERRE_PAIRS.items()))
def test_serre_pairs(shape, pairs):
    assert build_root_data(*shape).serre_pairs() == pairs


@pytest.mark.parametrize("shape", [(2, 2), (3, 1)])
def test_serre_pairs_are_eq4_ids(shape):
    from uqsl.finite import check_chevalley

    ids = [r.id for r in check_chevalley(*shape, "i", 0) if r.id.startswith("chevalley.eq4.")]
    assert ids == [f"chevalley.eq4.i={i}.j={j}.sign={sign}.variant=i"
                   for i, j in SERRE_PAIRS[shape] for sign in ("plus", "minus")]
