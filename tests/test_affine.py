"""Loop-algebra relation suites: counts, spot identities, negative controls."""

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl import LinForm, affine, affine_symbols, bulk
from uqsl.affine import (
    AffineContext,
    _partitions,
    affine_config,
    check_eq7,
    check_eq10,
    check_eq11,
    check_eq12,
    check_eq13,
    check_eq14,
    run_affine,
)
from uqsl.bulk import BulkError
from uqsl.oscillators import VACUUM, enumerate_basis


@pytest.fixture(scope="module")
def smoke():
    """E_cut=1, window=1 covers every checker with all symbols formal."""
    return run_affine(E_cut=1, window=1, psi_nmax=2)


@pytest.fixture(scope="module")
def ctx():
    return AffineContext()


@pytest.fixture(scope="module")
def sab_k2():
    """Level 2 with f13 corrupted to 1: nonzero residuals on every state."""
    return AffineContext(k=2, f_overrides={"f13": affine_symbols(2).one()})


class TestSmokeSuite:
    def test_counts_by_relation(self, smoke):
        counts = {}
        for r in smoke:
            eq = r.id.split(".")[1]
            counts[eq] = counts.get(eq, 0) + 1
        assert counts == {
            "eq6": 1, "eq7": 12, "eq8": 56, "eq9": 48, "eq10": 36,
            "eq11": 54, "eq12": 12, "eq13": 36, "eq14": 1, "eq15": 20,
        }

    def test_all_pass(self, smoke):
        bad = [r.id for r in smoke if r.status == "fail"]
        assert bad == []

    def test_ids_unique(self, smoke):
        ids = [r.id for r in smoke]
        assert len(set(ids)) == len(ids)

    def test_only_eq14_not_applicable(self, smoke):
        na = [r.id for r in smoke if r.status == "not-applicable"]
        assert na == ["drinfeld.eq14"]

    def test_ids_match_readme(self, smoke):
        """Each id has the fields of one row of the README's affine table,
        in order; a field written name=value there must carry that value."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `((?:drinfeld|psi)\.[^`]*)` \|", text, re.M)

        def matches(row, rid):
            rf, idf = row.split("."), rid.split(".")
            return len(rf) == len(idf) and all(
                r == i or ("=" not in r and i.split("=")[0] == r) for r, i in zip(rf, idf))

        assert [r.id for r in smoke if not any(matches(row, r.id) for row in rows)] == []
        assert [row for row in rows if not any(matches(row, r.id) for r in smoke)] == []

    def test_numeric_blocks(self, smoke):
        for r in smoke:
            if r.status != "pass":
                continue
            assert r.numeric["status"] == "pass"
            assert r.numeric["assignments"] == 3
            assert r.numeric["pairs"] <= 64

    def test_formal_level_in_ids(self, smoke):
        tagged = [r for r in smoke if ".k=" in r.id]
        assert tagged and all(r.id.endswith("k=formal") for r in tagged)

    def test_checked_counts(self, smoke):
        # seven states at energy <= 1, one comparison case per state
        r = next(r for r in smoke if r.id.startswith("drinfeld.eq10."))
        assert r.checked == 7


class TestDeterminism:
    def test_repeat_run_identical(self):
        a = run_affine(E_cut=0, window=1, psi_nmax=1)
        b = run_affine(E_cut=0, window=1, psi_nmax=1)
        assert a == b


class TestNumericLevel:
    def test_k2_suite(self):
        res = run_affine(E_cut=0, window=1, k=2, psi_nmax=1)
        assert all(r.status != "fail" for r in res)
        assert any(r.id.endswith("k=2") for r in res)

    def test_gamma_at_k2(self):
        ctx = AffineContext(k=2)
        assert ctx.gamma_pow(1) == ctx.table.monomial({"q": 4})


class TestScalars:
    def test_gamma_pow(self, ctx):
        T = ctx.table
        assert ctx.gamma_pow(Fraction(1, 2)) == T.monomial({"G": 1})
        assert ctx.gamma_pow(1) == T.monomial({"G": 2})
        assert ctx.gamma_pow(-1) * ctx.gamma_pow(1) == T.one()

    @pytest.mark.parametrize("i,j", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_cartan_mode_scalars(self, ctx, i, j):
        # the oscillator route against the closed form, beyond the window
        for n in (1, 2, 5):
            assert ctx.h_scalar(i, j, n) == ctx.eq8_rhs_scalar(i, j, n)

    def test_degenerate_pair_cancels(self, ctx):
        assert ctx.h_scalar(2, 2, 3).is_zero()
        assert ctx.eq8_rhs_scalar(2, 2, 3).is_zero()


class TestCartanCache:
    def test_h_action_once_per_state(self, monkeypatch):
        ctx = AffineContext()
        real = affine.apply_oscillator
        seen = []

        def spy(alg, coeffs, n, state):
            seen.append((n, state))
            return real(alg, coeffs, n, state)

        monkeypatch.setattr(affine, "apply_oscillator", spy)
        one = {VACUUM: ctx.table.one()}
        vec = ctx.h_vec(1, -1, one)
        vec[VACUUM] = ctx.table.qint(3)
        first = ctx.h_vec(2, 1, vec)
        assert ctx.h_vec(2, 1, vec) == first
        assert ctx.h_vec(1, -1, one).keys() == vec.keys() - {VACUUM}
        assert sorted(seen, key=repr) == sorted(
            [(-1, VACUUM)] + [(1, s) for s in vec], key=repr)
        assert first and VACUUM in first

    def test_creation_scalars_shared(self):
        # H^i_n with n < 0 puts the same coeff * [m] on every state
        ctx = AffineContext()
        states = enumerate_basis(1)
        ctx.h_vec(1, -1, {s: ctx.table.one() for s in states})
        scalars = [[c for _, c in ctx._app[("H1", -1, s)]] for s in states]
        assert all(len(row) == len(scalars[0]) > 0 for row in scalars)
        for row in scalars[1:]:
            assert all(a is b for a, b in zip(row, scalars[0]))


class TestPartitions:
    def test_empty(self):
        assert _partitions(0) == [()]

    def test_four(self):
        assert sorted(_partitions(4)) == sorted([
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])

    def test_shape(self):
        for n in range(1, 7):
            for parts in _partitions(n):
                assert sum(parts) == n
                assert list(parts) == sorted(parts, reverse=True)


class TestEq14:
    def test_not_applicable(self, ctx):
        (res,) = check_eq14(ctx)
        assert res.status == "not-applicable"
        assert "reason" in res.witness


class TestMomentumSector:
    """Relations on states with shifted zero modes; the cocycle signs and
    momentum eigenvalues enter nontrivially only here."""

    def test_conjugation(self, ctx):
        basis = enumerate_basis(1, radius=1)
        res = check_eq7(ctx, basis, 1)
        assert [r.status for r in res] == ["pass"] * 12

    def test_odd_anticommutator(self, ctx):
        basis = enumerate_basis(1, radius=1)
        res = check_eq12(ctx, basis, 1)
        assert [r.status for r in res] == ["pass"] * 12

    def test_ef_bracket(self, ctx):
        basis = enumerate_basis(1, radius=1)
        res = check_eq10(ctx, basis, 1)
        assert [r.status for r in res] == ["pass"] * 36


def serre_pieces(ctx, pref, n1, n2, m, scale=1):
    """check_eq13's pieces, the q^{+-1} ones multiplied by scale."""
    T = ctx.table
    mq = -T.qpow(LinForm(1)) * scale
    mqinv = -T.qpow(LinForm(-1)) * scale
    aab = (f"{pref}1", f"{pref}1", f"{pref}2")
    aba = (f"{pref}1", f"{pref}2", f"{pref}1")
    baa = (f"{pref}2", f"{pref}1", f"{pref}1")
    pieces = []
    for (na, nb) in ((n1, n2), (n2, n1)):
        pieces += [
            (aab, (na, nb, m), None),
            (aba, (na, m, nb), mqinv),
            (aba, (nb, m, na), mq),
            (baa, (m, nb, na), None),
        ]
    return pieces


class TestPackedEngine:
    """The int64-row fast path must reproduce the exact path's values, which
    then render identically, or decline; never a third behaviour."""

    def test_serre_residual_matches(self, ctx):
        pieces = serre_pieces(ctx, "F", -1, 0, 1)
        jobs = ctx._jobs(pieces)
        for state in enumerate_basis(2)[::7]:
            fast = ctx.bulk.combo_residual(jobs, state)
            slow = ctx.engine.extract_sum(jobs, state)
            assert fast == slow == {}

    def answered(self, ctx, jobs, state):
        try:
            return ctx.bulk.combo_residual(jobs, state)
        except BulkError as exc:
            pytest.fail(f"packed engine declined: {exc}")

    def test_sabotage_residual_matches(self, sab_k2):
        # a corrupted constant must leak identically through both paths
        sab = AffineContext(f_overrides={"f13": affine_symbols().one()})
        pieces = serre_pieces(sab, "F", -1, -1, 0)
        jobs = sab._jobs(pieces)
        fast = sab.bulk.combo_residual(jobs, VACUUM)
        slow = sab.engine.extract_sum(jobs, VACUUM)
        assert fast == slow
        assert fast and all(not c.is_zero() for c in fast.values())
        # at a numeric level the leak spreads over many groups and states,
        # so stage B decodes them all
        jobs = sab_k2._jobs(serre_pieces(sab_k2, "F", -1, -1, 0))
        for state in enumerate_basis(1):
            fast = self.answered(sab_k2, jobs, state)
            assert fast and fast == sab_k2.engine.extract_sum(jobs, state)

    def test_pair_residual_matches(self, ctx, sab_k2):
        # weights of one term, of two terms and with a denominator power
        # meet the same branches, so each needs its own cached encoding
        T = ctx.table
        weights = (None, T.qpow(LinForm(1)) + T.qpow(LinForm(-1)), T.qdiff_inv())
        for pair in (("E2", 1, "E2", -1), ("E1", 1, "E1", -1)):
            for xi in weights:
                jobs = ctx._jobs(ctx._pair_pieces(*pair, xi))
                for state in enumerate_basis(2)[:10]:
                    assert ctx.bulk.combo_residual(jobs, state) == ctx.engine.extract_sum(
                        jobs, state)
        for pieces, leaks in ((sab_k2._pair_pieces("E2", 1, "E2", -1), False),
                              (sab_k2._pair_pieces("F1", 0, "F1", -1), True)):
            jobs = sab_k2._jobs(pieces)
            for state in enumerate_basis(1):
                fast = self.answered(sab_k2, jobs, state)
                assert bool(fast) == leaks
                assert fast == sab_k2.engine.extract_sum(jobs, state)

    def test_cache_entries_stop_growing(self):
        # eq11 builds new weight objects for every relation; the second
        # pass over the same relations must find every encoding it needs
        ctx = AffineContext()
        basis = enumerate_basis(1)

        def entries():
            return sum(len(c) + sum(len(v) for v in c.values() if isinstance(v, dict))
                       for c in vars(ctx.bulk).values() if isinstance(c, dict))

        sizes = []
        for _ in range(2):
            check_eq11(ctx, basis, 1)
            check_eq13(ctx, basis, 1)
            sizes.append(entries())
        assert sizes[0] == sizes[1] > 0
        # the engine's flow and bucket caches belong to the exact path,
        # which the kernel families never enter
        assert not ctx.engine._flowcache and not ctx.engine._prodcache
        # a dkey resolves on any context built the same way, whether or
        # not that context has produced it
        fresh = AffineContext()
        for dkey in ctx.bulk._p_cache:
            assert fresh.engine.bucket_product_key(dkey) == ctx.engine.bucket_product_key(dkey)
        # a weight built after another is dropped, maybe at the same
        # address, must not meet the dropped one's encodings
        T = ctx.table
        for e in (1, 3):
            jobs = ctx._jobs(ctx._pair_pieces("E1", 1, "E1", 0, T.qpow(LinForm(e))))
            for state in basis:
                fast = self.answered(ctx, jobs, state)
                assert fast == ctx.engine.extract_sum(jobs, state)
            del jobs

    def test_nonzero_product_decodes(self, ctx):
        # a single product, not a cancelling combination: decode path
        jobs = ctx._jobs([(("E1", "F1"), (0, 0), None)])
        fast = ctx.bulk.combo_residual(jobs, VACUUM)
        slow = ctx.engine.extract_sum(jobs, VACUUM)
        assert fast == slow and fast

    def test_guard_declines_wide_exponents(self, ctx):
        huge = ctx.table.qpow(LinForm(3000))
        pieces = ctx._pair_pieces("E1", 0, "F1", 0, huge)
        jobs = ctx._jobs(pieces)
        with pytest.raises(BulkError):
            ctx.bulk.combo_residual(jobs, VACUUM)
        # the public entry falls back to the exact path
        out = ctx.combo_zero(pieces, VACUUM)
        assert out == ctx.engine.extract_sum(jobs, VACUUM)

    def test_chunked_reduce_matches(self, sab_k2, monkeypatch):
        # a few rows per chunk: every stage is built and merged in pieces
        merges = []
        real = bulk._reduce

        def counted(k, v):
            merges.append(k.size)
            return real(k, v)

        monkeypatch.setattr(bulk, "_CHUNK", 5)
        monkeypatch.setattr(bulk, "_reduce", counted)
        jobs = sab_k2._jobs(serre_pieces(sab_k2, "F", -1, -1, 0))
        states = enumerate_basis(1)
        for state in states:
            fast = self.answered(sab_k2, jobs, state)
            assert fast and fast == sab_k2.engine.extract_sum(jobs, state)
        # unchunked, a call merges at most three times (stage A, the
        # deficits, stage B)
        assert len(merges) > 3 * len(states)

    def test_no_stage_a_rows(self, ctx, monkeypatch):
        # a product against its own negative cancels inside stage A
        minus = ctx.table.rational(-1)
        pieces = [(("E1", "F1"), (0, 0), None), (("E1", "F1"), (0, 0), minus)]
        jobs = ctx._jobs(pieces)

        def stage_b(dkey):
            raise AssertionError("stage B reached")

        monkeypatch.setattr(ctx.bulk, "_enc_p", stage_b)
        for state in enumerate_basis(1):
            assert self.answered(ctx, jobs, state) == {}
            assert ctx.engine.extract_sum(jobs, state) == {}

    def test_stage_sum_bound_edges(self, ctx):
        jobs = ctx._jobs(ctx._pair_pieces("E1", 0, "F1", 0, ctx.table.rational(2**50)))
        fast = self.answered(ctx, jobs, VACUUM)
        assert fast and fast == ctx.engine.extract_sum(jobs, VACUUM)
        pieces = ctx._pair_pieces("E1", 0, "F1", 0, ctx.table.rational(2**58))
        jobs = ctx._jobs(pieces)
        with pytest.raises(BulkError, match="^stage sum bound exceeded$"):
            ctx.bulk.combo_residual(jobs, VACUUM)
        out = ctx.combo_zero(pieces, VACUUM)
        assert out and out == ctx.engine.extract_sum(jobs, VACUUM)


_EQ11_PAIRS = [(pref, i, j) for pref in "EF" for i, j in ((1, 1), (1, 2), (2, 2))]


class TestPackedGuards:
    """BulkEngine._enc at its field edges, and the kernel against the exact
    path on weights that straddle them: an answer equal to extract_sum or
    BulkError, never a third behaviour."""

    def test_exponent_edges(self, ctx):
        T = ctx.table
        for extra in ({}, {"e11": 1, "G": 3}):
            for e in (4095, -4096):
                enc = ctx.bulk._enc(T.monomial({"q": e, **extra}), 0)
                assert enc.vals.tolist() == [1]
            for e in (4096, -4097):
                with pytest.raises(BulkError, match="^exponent outside packed range$"):
                    ctx.bulk._enc(T.monomial({"q": e, **extra}), 0)

    def test_numerator_edges(self, ctx):
        T = ctx.table
        for sign in (1, -1):
            enc = ctx.bulk._enc(T.rational(sign * (2**62 - 1)), 0)
            assert enc.vals.tolist() == [sign * (2**62 - 1)]
            with pytest.raises(BulkError, match="^numerator outside packed range$"):
                ctx.bulk._enc(T.rational(sign * 2**62), 0)
        # the numerator counts over the scalar's common denominator
        mixed = T.rational(Fraction(2**61, 3)) + T.monomial({"q": 2}, Fraction(1, 2))
        with pytest.raises(BulkError, match="^numerator outside packed range$"):
            ctx.bulk._enc(mixed, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_EQ11_PAIRS), st.integers(-1, 1), st.integers(-1, 1),
           st.integers(0, 22).flatmap(lambda k: st.integers(2**(62 - k), 2**(63 - k))),
           st.integers(-4200, 4200),
           st.sampled_from(enumerate_basis(1)), st.booleans())
    def test_eq11_weights(self, ctx, pair, n, m, coeff, e, state, whole):
        # drawn by bit length (41 to 64), so the long coefficients that
        # can wrap int64 sums come up; a weight other than q^(+-a_ij)
        # leaves a nonzero residual on many states, where a wrap would show
        pref, i, j = pair
        xi = ctx.table.monomial({"q": e}, coeff)
        pieces = ctx._pair_pieces(f"{pref}{i}", n + 1, f"{pref}{j}", m, xi)
        if whole:
            pieces += ctx._pair_pieces(f"{pref}{j}", m + 1, f"{pref}{i}", n, xi)
        self.assert_kernel_agrees(ctx, pieces, state)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from("EF"), st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1),
           st.integers(0, 22).flatmap(lambda k: st.integers(2**(62 - k), 2**(63 - k))),
           st.booleans(), st.sampled_from(enumerate_basis(1)))
    def test_eq13_weights(self, ctx, pref, n1, n2, m, coeff, negative, state):
        # eq13's three-variable jobs with the q^{+-1} pieces scaled by a
        # coefficient drawn by bit length: the relation no longer cancels,
        # so a wrapped int64 sum would show in the residual
        scale = -coeff if negative else coeff
        self.assert_kernel_agrees(ctx, serre_pieces(ctx, pref, n1, n2, m, scale), state)

    def assert_kernel_agrees(self, ctx, pieces, state):
        jobs = ctx._jobs(pieces)
        slow = ctx.engine.extract_sum(jobs, state)
        try:
            fast = ctx.bulk.combo_residual(jobs, state)
        except BulkError:
            return
        assert fast == slow


class TestResidues:
    def reference(self, engine, jobs, state, memo):
        """The per-branch residue formula, term by term."""
        out = []
        for fused, targets, weight in jobs:
            key = (fused.uid, state)
            if key not in memo:
                memo[key] = engine._state_branches(fused, state)
            branches, taueig, momenta = memo[key]
            r = len(fused.vterms)
            for i, (base, annE, _, occ_after) in enumerate(branches):
                res = tuple(
                    targets[v] - fused.p0s[v] - taueig[v] + annE[v] for v in range(r))
                if sum(res) >= 0:
                    out.append((fused, res, i, base, weight, momenta, occ_after))
        return out

    def test_quadratic_and_serre_jobs(self, monkeypatch):
        ctx = AffineContext()
        basis = enumerate_basis(1)
        # the states of the window, plus momenta that move the z-powers
        walk = basis + enumerate_basis(0, 1)[1:]
        seen = []

        def record(pieces, state):
            if state == basis[0]:
                seen.append(pieces)
            return {}

        monkeypatch.setattr(ctx, "combo_zero", record)
        monkeypatch.setattr(ctx, "combo_vec", record)  # eq12's exact path
        check_eq11(ctx, basis, 1)
        check_eq12(ctx, basis, 1)
        check_eq13(ctx, basis, 1)
        assert len(seen) == 54 + 12 + 36
        walked = 0
        memo = {}
        for pieces in seen:
            jobs = ctx._jobs(pieces)
            for state in walk:
                got = list(ctx.engine.residues(jobs, state))
                want = self.reference(ctx.engine, jobs, state, memo)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g[0] is w[0] and g[2] == w[2] and g[3] == w[3] and g[4] is w[4]
                    assert g[1] == w[1] and list(map(type, g[1])) == list(map(type, w[1]))
                    assert g[5:] == w[5:]
                    # the index addresses the engine's own cached branch list
                    assert ctx.engine._branches[state][g[0].uid][0][g[2]][0] is g[3]
                walked += len(got)
        assert walked

    def test_flow_degrees_nonnegative(self, monkeypatch):
        # flows_map keeps every degree _flows yields: its loop bounds must
        # keep each variable's creation degree >= 0 for one, two and three
        # variables
        ctx = AffineContext()
        basis = enumerate_basis(1)
        residues = {}
        real = ctx.engine.residues

        def record(jobs, state):
            for item in real(jobs, state):
                residues[item[0].uid, item[1]] = item[0]
                yield item

        monkeypatch.setattr(ctx.engine, "residues", record)
        for check in (check_eq10, check_eq11, check_eq12, check_eq13):
            check(ctx, basis, 1)
        assert {len(res) for _, res in residues} == {1, 2, 3}
        flows = 0
        for (_, res), fused in residues.items():
            for dvec, _ in ctx.engine._flows(fused, res):
                assert min(dvec) >= 0, (res, dvec)
                flows += 1
        assert flows


class TestNegativeControls:
    @pytest.mark.parametrize(
        "name", ["f11", "f12", "f13", "f21", "f22", "f23", "f24"])
    def test_each_constant_detected(self, name):
        T = affine_symbols()
        res = run_affine(E_cut=0, window=1, psi_nmax=1,
                         f_overrides={name: T.one()})
        bad = [r for r in res if r.status == "fail"]
        assert bad, f"override {name}=1 went undetected"
        assert all(r.witness is not None for r in bad)

    def test_f13_locus(self):
        # the three-constant term sits in F1 and leaks into the mixed
        # bracket with E2, not the diagonal (1,1) one
        T = affine_symbols()
        res = run_affine(E_cut=0, window=1, psi_nmax=1,
                         f_overrides={"f13": T.one()})
        fails = {r.id for r in res if r.status == "fail"}
        assert "drinfeld.eq10.i=2.j=1.n=0.m=-1.k=formal" in fails
        assert not any(".eq10.i=1.j=1" in f for f in fails)


class TestConfig:
    def test_affine_config(self):
        cfg = affine_config(2, 2, None, 0, "l1", 4, {"f13": "1"})
        assert cfg["k"] == "formal"
        assert cfg["overrides"] == {"f13": "1"}
        assert cfg["M"] == 2 and cfg["N"] == 1
