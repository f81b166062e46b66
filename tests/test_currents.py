"""Vertex-operator currents: constants, mode actions, worked anchors."""

import itertools
from fractions import Fraction
from operator import add

import pytest

from uqsl import LinForm, affine_symbols
from uqsl.affine import AffineContext
from uqsl.currents import (
    CURRENT_PARITY,
    VertexEngine,
    default_e_values,
    f_constants,
    h_coeffs,
    make_currents,
)
from uqsl.oscillators import (
    A_FAMS,
    K_EXPONENTS,
    NODES,
    Q_SLOTS,
    VACUUM,
    FockState,
    OscillatorAlgebra,
    cocycle_sign,
)


@pytest.fixture(scope="module")
def ctx():
    return AffineContext()


def one_at(ctx, state=VACUUM):
    return {state: ctx.table.one()}


class TestFConstants:
    def test_defaults(self):
        T = affine_symbols()
        fs = f_constants(T, default_e_values(T))
        assert fs["f11"] == T.monomial({"e11": -1})
        assert fs["f12"] == T.monomial({"e12": -1})
        assert fs["f13"] == T.monomial({"G": 2, "q": 2, "e21": 1, "e11": -1, "e22": -1})
        assert fs["f21"] == T.monomial({"q": 2, "e21": -1})
        assert fs["f22"] == T.monomial({"q": 2, "e12": 1, "e11": -1, "e21": -1})
        assert fs["f23"] == T.monomial({"e22": -1})
        assert fs["f24"] == T.monomial({"e12": 1, "e11": -1, "e22": -1})

    def test_unit_e_values(self):
        # with every e = 1 the seven constants collapse to q-powers
        T = affine_symbols()
        ones = {name: T.one() for name in ("e11", "e12", "e21", "e22")}
        fs = f_constants(T, ones)
        q = T.qpow(LinForm(1))
        want = {
            "f11": T.one(),
            "f12": T.one(),
            "f13": T.qpow(LinForm(1, {"k": Fraction(1)})),
            "f21": q,
            "f22": q,
            "f23": T.one(),
            "f24": T.one(),
        }
        assert fs == want

    def test_override_applied(self):
        T = affine_symbols()
        fs = f_constants(T, default_e_values(T), {"f13": T.one()})
        assert fs["f13"] == T.one()
        assert fs["f11"] == T.monomial({"e11": -1})

    def test_override_unknown(self):
        T = affine_symbols()
        with pytest.raises(ValueError):
            f_constants(T, default_e_values(T), {"f99": T.one()})


class TestCurrentTables:
    def test_term_counts(self, ctx):
        counts = {name: len(terms) for name, terms in ctx.currents.items()}
        assert counts == {
            "E1": 2, "E2": 2, "F1": 3, "F2": 4,
            "psi1+": 1, "psi1-": 1, "psi2+": 1, "psi2-": 1,
        }

    def test_parities(self):
        assert CURRENT_PARITY["E1"] == 0 and CURRENT_PARITY["F1"] == 0
        assert CURRENT_PARITY["E2"] == 1 and CURRENT_PARITY["F2"] == 1
        assert all(CURRENT_PARITY[f"psi{i}{s}"] == 0 for i in (1, 2) for s in "+-")

    def test_rejects_full_cartan(self):
        T = affine_symbols()
        eng = VertexEngine(OscillatorAlgebra(T))
        with pytest.raises(ValueError):
            eng.make_vterm(T.one(), 0, [("a1", "full", LinForm(0), 1)])

    def test_rejects_unknown_kind(self):
        T = affine_symbols()
        eng = VertexEngine(OscillatorAlgebra(T))
        with pytest.raises(ValueError):
            eng.make_vterm(T.one(), 0, [("b12", "half", LinForm(0), 1)])


class TestHCoeffs:
    def test_i1_values(self):
        T = affine_symbols()
        c = h_coeffs(T, 1, 1)
        inner = T.monomial({"q": -2, "G": -1})
        assert c["a1"] == T.monomial({"q": -1})
        assert c["b12"] == inner * T.qint(2)
        assert c["b13"] == T.monomial({"q": -4, "G": -1})
        assert c["b23"] == -inner

    def test_i2_families(self):
        T = affine_symbols()
        c = h_coeffs(T, 2, 1)
        assert set(c) == {"a2", "b12", "b13"}
        assert c["b12"] == c["b13"]

    def test_mode_sign_invisible(self):
        # coefficients depend on |n| only; the mode index carries the sign
        T = affine_symbols()
        assert h_coeffs(T, 1, 2) == h_coeffs(T, 1, -2)

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            h_coeffs(affine_symbols(), 1, 0)

    def test_unknown_index(self):
        with pytest.raises(ValueError):
            h_coeffs(affine_symbols(), 3, 1)

    @pytest.mark.parametrize("k", [None, 2, -2], ids=["formal", "k2", "k-2"])
    def test_q1_limit_is_k_exponents(self, k):
        # K_i = q^{H^i_0}: at q -> 1 each oscillator of H^i_n carries the
        # exponent its zero mode has in K_i, slot by slot (absent ones 0)
        T = affine_symbols(k)
        slots = Q_SLOTS + A_FAMS
        for i in NODES:
            sigma, sigma_a = K_EXPONENTS[i]
            want = dict(zip(slots, sigma + sigma_a))
            for n in (1, 2, 3, 4, -1, -2, -3, -4):
                c = h_coeffs(T, i, n)
                assert set(c) <= set(slots)
                assert all(v.dpow == 0 for v in c.values()), (i, n)
                got = {s: Fraction(sum(c[s].terms.values()), c[s].den) if s in c else 0
                       for s in slots}
                assert got == want, (k, i, n)


class TestVacuumAnchors:
    def test_e2_minus_one(self, ctx):
        T = ctx.table
        out = ctx.mode_vec("E2", -1, one_at(ctx))
        assert out == {
            FockState((0, 0, 1, 0)): T.monomial({"e21": 1}),
            FockState((1, 1, 0, 1)): T.monomial({"e22": 1}),
        }

    def test_f1_zero(self, ctx):
        T = ctx.table
        out = ctx.mode_vec("F1", 0, one_at(ctx))
        want = (
            T.monomial({"W1": 1, "e11": -1}) - T.monomial({"W1": -1, "e12": -1})
        ) * T.qdiff_inv()
        assert out == {FockState((1, 0, 0, 1)): want}

    def test_e1_zero(self, ctx):
        T = ctx.table
        out = ctx.mode_vec("E1", 0, one_at(ctx))
        want = (T.monomial({"e12": 1}) - T.monomial({"e11": 1})) * T.qdiff_inv()
        assert out == {FockState((-1, 0, 0, -1)): want}

    def test_psi_zero_modes(self, ctx):
        T = ctx.table
        assert ctx.mode_vec("psi2+", 0, one_at(ctx)) == {VACUUM: T.monomial({"W2": 1})}
        assert ctx.mode_vec("psi2-", 0, one_at(ctx)) == {VACUUM: T.monomial({"W2": -1})}
        assert ctx.mode_vec("psi1+", 0, one_at(ctx)) == {VACUUM: T.monomial({"W1": 1})}

    def test_ef_bracket(self, ctx):
        T = ctx.table
        out = ctx.graded_pair("E1", 0, "F1", 0, VACUUM)
        want = (T.monomial({"W1": 1}) - T.monomial({"W1": -1})) * T.qdiff_inv()
        assert out == {VACUUM: want}


class TestModeVanishing:
    def test_e2_annihilates(self, ctx):
        for n in range(0, 3):
            assert ctx.mode_vec("E2", n, one_at(ctx)) == {}

    def test_e1_annihilates(self, ctx):
        for n in range(1, 4):
            assert ctx.mode_vec("E1", n, one_at(ctx)) == {}

    def test_psi_plus_annihilates(self, ctx):
        for n in (-1, -2):
            assert ctx.mode_vec("psi2+", n, one_at(ctx)) == {}
            assert ctx.mode_vec("psi1+", n, one_at(ctx)) == {}


class TestFusedRoute:
    # one joint extraction must agree with mode-by-mode application
    samples = [
        (("E1", "F1"), (0, 0)),
        (("E2", "F1"), (-1, 0)),
        (("F2", "E2"), (1, -2)),
        (("E1", "E1", "E2"), (-1, 0, 1)),
    ]

    @pytest.mark.parametrize("names,modes", samples)
    def test_on_vacuum(self, ctx, names, modes):
        assert ctx.combo_vec([(names, modes, None)], VACUUM) == ctx.product_vec(
            names, modes, VACUUM
        )

    @pytest.mark.parametrize("names,modes", samples)
    def test_on_excited_state(self, ctx, names, modes):
        state = FockState((0, 1, 0, 0)).with_creation("b12", 1)
        assert ctx.combo_vec([(names, modes, None)], state) == ctx.product_vec(
            names, modes, state
        )


class TestZeroModeOrdering:
    def test_mixed_bracket_cancels(self, ctx):
        # the three-constant F1 term must cancel against E2 exactly
        assert ctx.graded_pair("E2", 0, "F1", -1, VACUUM) == {}

    def test_sabotage_leaks(self):
        sab = AffineContext(f_overrides={"f13": affine_symbols().one()})
        out = sab.graded_pair("E2", 0, "F1", -1, VACUUM)
        assert list(out) == [FockState((1, 0, 1, 1))]


class TestCartanAnchor:
    def test_h1_on_e1(self, ctx):
        # [H^1_1, E1_-1]|0> = [2] gamma^(-1/2) E1_0 |0>
        T = ctx.table
        one = one_at(ctx)
        lhs = ctx.h_vec(1, 1, ctx.mode_vec("E1", -1, one))
        assert ctx.h_vec(1, 1, one) == {}
        coeff = T.qint(2) * ctx.gamma_pow(Fraction(-1, 2))
        rhs = {s: c * coeff for s, c in ctx.mode_vec("E1", 0, one).items()}
        assert lhs == rhs


# fuse's zero-mode rules as it wrote them before it called the oscillators
# module: the crossing loop, the q-power and the p0 shift, over the (2|1)
# slot tables b12, b13, b23, c12 as literals
_ODD = (False, True, True, False)
_C0 = (-1, 1, 1, 1)


def _ref_sign(left_eps, right_eps) -> int:
    sign = 1
    for s in range(4):
        if _ODD[s] and right_eps[s]:
            crossings = sum(abs(left_eps[t]) for t in range(s + 1, 4) if _ODD[t])
            if (abs(right_eps[s]) * crossings) % 2:
                sign = -sign
    return sign


def _ref_fold(T, vterms):
    """(const, p0s, eps) of vterms fused left to right."""
    first = vterms[0]
    const, p0s, eps, sigma, taus = first.const, (first.p0,), first.eps, first.sigma, (first.tau,)
    for vt in vterms[1:]:
        corr = LinForm(0)
        for t in range(4):
            if vt.eps[t]:
                corr = corr + sigma[t] * (vt.eps[t] * _C0[t])
        const = const * vt.const
        if corr.const or corr.coeffs:
            const = const * T.qpow(corr)
        if _ref_sign(eps, vt.eps) < 0:
            const = -const
        p0s = tuple(
            p0s[v] + sum(taus[v][t] * vt.eps[t] * _C0[t] for t in range(4))
            for v in range(len(p0s))
        ) + (vt.p0,)
        eps = tuple(map(add, eps, vt.eps))
        sigma = tuple(map(add, sigma, vt.sigma))
        taus += (vt.tau,)
    return const, p0s, eps


class TestFuseRules:
    """fuse takes its zero-mode rules from the oscillators module; they
    must give what its own loops gave."""

    @pytest.mark.parametrize("level", ["formal", "k=2,f13=1"])
    def test_relation_products(self, level):
        if level == "formal":
            ctx = AffineContext()
        else:
            ctx = AffineContext(k=2, f_overrides={"f13": affine_symbols(2).one()})
        T = ctx.table
        seen = 0
        for pref in "EF":
            x1, x2 = f"{pref}1", f"{pref}2"
            # eq11 and eq12 products, then eq13's three orders
            names_list = list(itertools.product((x1, x2), repeat=2))
            names_list += [(x1, x1, x2), (x1, x2, x1), (x2, x1, x1)]
            for names in names_list:
                for fused in ctx.fused_terms(names):
                    const, p0s, eps = _ref_fold(T, fused.vterms)
                    assert ((fused.const.terms, fused.const.dpow, fused.const.den)
                            == (const.terms, const.dpow, const.den))
                    assert fused.p0s == p0s and fused.eps == eps
                    assert all(type(p) is int for p in fused.p0s)
                    seen += 1
        # E: 4 * 4 pairs and 3 * 8 triples; F: 49 pairs and 3 * 36 triples
        assert seen == 16 + 24 + 49 + 108

    def test_cocycle_sign_is_the_crossing_loop(self):
        eps = list(itertools.product(range(-2, 3), repeat=4))
        bad = [(a, b) for a in eps for b in eps if cocycle_sign(a, b) != _ref_sign(a, b)]
        assert not bad, bad[:5]


# The contraction series as the engine built it before the closed form:
# kappa_n summed from the annihilation values at every order n, then the
# exp-recursion C_l = (1/l) sum_j j kappa_j C_{l-j}.
def _ref_kappa(vtA, vtB, n):
    kap = vtA.table.zero()
    for cf in vtB.cre_fams:
        kap = kap + vtA.ann_value(cf, n) * vtB.cre_coeff(cf, n)
    return kap


def _ref_series(vtA, vtB, lmax):
    kappas = [_ref_kappa(vtA, vtB, n) for n in range(1, lmax + 1)]
    out = [vtA.table.one()]
    for l in range(1, lmax + 1):
        tot = vtA.table.zero()
        for j in range(1, l + 1):
            tot = tot + kappas[j - 1] * out[l - j] * j
        out.append(tot * Fraction(1, l))
    return out


@pytest.fixture(scope="module", params=[None, -2, 0, 2],
                ids=lambda k: "formal" if k is None else f"k={k}")
def level_ctx(request):
    """Formal level, and the integer levels at which two exponents of one
    series coincide (e_c = +-2)."""
    return AffineContext(k=request.param)


def _term_pairs(ctx):
    terms = [t for name in sorted(ctx.currents) for t in ctx.currents[name]]
    assert len(terms) == 15
    return list(itertools.product(terms, repeat=2))


class TestContractionSeries:
    """C_l read off the closed form prod_c (1 - q^c x)^(-e_c) against the
    exp-recursion over kappa_n, on all 225 ordered pairs of current terms."""

    LMAX = 10

    def test_closed_form_is_the_recursion(self, level_ctx):
        engine = level_ctx.engine
        for vtA, vtB in _term_pairs(level_ctx):
            want = _ref_series(vtA, vtB, self.LMAX)
            got = [engine._series_coeff(vtA, vtB, l) for l in range(self.LMAX + 1)]
            assert got == want, (vtA.uid, vtB.uid)

    def test_coefficients_are_integer_polynomials(self, level_ctx):
        engine = level_ctx.engine
        seen = set()
        for vtA, vtB in _term_pairs(level_ctx):
            for l in range(self.LMAX + 1):
                c = engine._series_coeff(vtA, vtB, l)
                assert c.dpow == 0 and c.den == 1
                assert all(type(v) is int for v in c.terms.values()), (vtA.uid, vtB.uid, l)
            k1 = _ref_kappa(vtA, vtB, 1).canonical()
            assert k1.den == 1
            seen.update(k1.terms.values())
        # every exponent e_c is +-1 or, where two exponents coincide, +-2
        assert seen <= {-2, -1, 1, 2}

    def test_kappa_n_is_kappa_1_at_q_to_the_n(self, level_ctx):
        for vtA, vtB in _term_pairs(level_ctx):
            k1 = _ref_kappa(vtA, vtB, 1).canonical()
            for n in range(1, 13):
                kn = (_ref_kappa(vtA, vtB, n) * n).canonical()
                assert (kn.dpow, k1.dpow, kn.den, k1.den) == (0, 0, 1, 1)
                assert kn.terms == {key * n: e for key, e in k1.terms.items()}, (vtA.uid, vtB.uid, n)

    def test_denominator_left_in_kappa_1_raises(self):
        ctx = AffineContext()
        vtA, vtB = ctx.currents["E1"][0], ctx.currents["F1"][0]
        vtA.ann_value = lambda fam, m: ctx.table.qdiff_inv()
        with pytest.raises(ValueError, match=r"keeps a \(q - q\^-1\) denominator"):
            ctx.engine._series_coeff(vtA, vtB, 1)

    def test_fractional_exponent_in_kappa_1_raises(self):
        # e_c is read off kappa_1's numerators, so they must be over 1
        ctx = AffineContext()
        vtA, vtB = ctx.currents["E1"][0], ctx.currents["F1"][0]
        vtA.ann_value = lambda fam, m: ctx.table.rational(Fraction(1, 7))
        with pytest.raises(ValueError, match="non-integer exponent"):
            ctx.engine._series_coeff(vtA, vtB, 1)
