"""Loop-algebra relation suites: counts, spot identities, negative controls."""

import contextlib
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl import LinForm, RingElem, affine, affine_symbols, bulk, report
from uqsl.affine import (
    EQ11_PAIRS,
    EQ13_PAIRS,
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
from uqsl.bulk import BulkEngine, BulkError
from uqsl.currents import CURRENT_PARITY
from uqsl.oscillators import (
    VACUUM,
    FockState,
    add_term,
    enumerate_basis,
    format_state,
    vec_scale,
    vec_sub,
)
from uqsl.structure import graded_bracket_sign

from readme_ids import readme_rows, unmatched


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
        stray_ids, stray_rows = unmatched(readme_rows("drinfeld|psi"), [r.id for r in smoke])
        assert stray_ids == []
        assert stray_rows == []

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


class TestOracleNegativeControl:
    def test_blinded_comparison_fails_through_oracle(self, monkeypatch):
        """With every exact comparison blinded (lhs - rhs reads zero), the
        numeric oracle alone must fail exactly the relations that f13=1
        breaks, none of them with a witness."""
        def run():
            return run_affine(E_cut=0, window=1, k=2, psi_nmax=1,
                              f_overrides={"f13": affine_symbols(2).one()})

        real = report.compare_cases

        def blinded(seed, rel_id, params, cases, zero, key, fmt):
            cases = list(cases)  # built with the real arithmetic
            with monkeypatch.context() as m:
                m.setattr(RingElem, "__sub__", lambda self, other: self.table.zero())
                return real(seed, rel_id, params, cases, zero, key, fmt)

        plain = {r.id: r for r in run()}
        # report.run_instances calls this name
        monkeypatch.setattr(report, "compare_cases", blinded)
        blind = {r.id: r for r in run()}
        assert blind.keys() == plain.keys()
        failed = sorted(rid for rid, r in plain.items() if r.status == "fail")
        assert len(failed) == 16
        assert all(plain[rid].witness is not None for rid in failed)
        assert sorted(rid for rid, r in blind.items() if r.status == "fail") == failed
        for rid in failed:
            assert blind[rid].witness is None
            assert blind[rid].numeric["status"] == "fail"


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

    @pytest.mark.parametrize("level", ["formal", "k2_f13"])
    def test_kernel_families_in_box(self, level, monkeypatch):
        # eq11 and eq13, the packed kernel's families, on every momentum of
        # the radius-1 box; on four states with nonzero momenta each
        # instance's kernel flag must say whether its exact residual is zero
        # (the box holds no letters at E_cut = 0, so a state's top branch is
        # its whole residual)
        ctx = _level_ctx(level)
        basis = enumerate_basis(0, 1, "box")
        assert len(basis) == 81
        probes = [s for s in basis if any(s.momenta)][::20]
        assert len(probes) == 4
        seen = []
        real = ctx.bulk.combo_residual

        def record(jobs, state):
            out = real(jobs, state)
            if state in probes:
                # a copy: _zero_cases empties a settled instance's slot later
                seen.append((list(jobs), state, out))
            return out

        monkeypatch.setattr(ctx.bulk, "combo_residual", record)
        res = check_eq11(ctx, basis, 1) + check_eq13(ctx, basis, 1)
        assert len(res) == 54 + 36
        fails = [r for r in res if r.status == "fail"]
        assert all(r.witness is not None for r in fails)
        if level == "formal":
            assert not fails
        else:
            sector = _level_ctx(level)
            at_zero = [r.id for r in check_eq11(sector, [VACUUM], 1) + check_eq13(
                sector, [VACUUM], 1) if r.status == "fail"]
            # eq11 6 and eq13 18, as the box run of check-affine reports
            assert at_zero and set(at_zero) <= {r.id for r in fails}
            assert len(fails) == 6 + 18
        assert len(seen) == 2 * len(probes)  # one call per family and state
        for jobs, state, out in seen:
            for inst_jobs, flag in zip(jobs, out):
                assert flag == (ctx.engine.extract_sum(inst_jobs, state) == {})
        # at f13 = 1 some probed instance leaks, so a flag stuck at True shows
        assert all(all(out) for _, _, out in seen) == (level == "formal")

    def test_other_families_in_box(self):
        # every family off the kernel on the radius-1 box at k = 2, f13 = 1:
        # only eq10 breaks, on the 9 relations the box run of check-affine
        # reports, its radius-0 failures among them
        ctx = _level_ctx("k2_f13")
        opts = {"ctx": ctx, "basis": enumerate_basis(0, 1, "box"), "window": 1, "psi_nmax": 2}
        names = ("eq6", "eq7", "eq8", "eq9", "eq10", "eq12", "eq14", "eq15")
        res = {name: report.run_family(affine.FAMILIES[name], opts) for name in names}
        assert [r.status for r in res.pop("eq14")] == ["not-applicable"]
        fails = [r for r in res.pop("eq10") if r.status == "fail"]
        assert len(fails) == 9 and all(r.witness is not None for r in fails)
        at_zero = [r.id for r in check_eq10(_level_ctx("k2_f13"), [VACUUM], 1)
                   if r.status == "fail"]
        assert at_zero and set(at_zero) <= {r.id for r in fails}
        assert {r.status for rs in res.values() for r in rs} == {"pass"}


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
    """The int64-row fast path must certify exactly the instances whose
    exact residual is zero, or decline; never a third behaviour."""

    def test_serre_residual_matches(self, ctx):
        pieces = serre_pieces(ctx, "F", -1, 0, 1)
        jobs = ctx._jobs(pieces)
        for state in enumerate_basis(2)[::7]:
            fast, = ctx.bulk.combo_residual([jobs], state)
            slow = ctx.engine.extract_sum(jobs, state)
            assert fast is True and slow == {}

    def answered(self, ctx, jobs, state):
        try:
            return ctx.bulk.combo_residual([jobs], state)[0]
        except BulkError as exc:
            pytest.fail(f"packed engine declined: {exc}")

    def test_sabotage_residual_matches(self, sab_k2):
        # a corrupted constant must leak through both paths
        sab = AffineContext(f_overrides={"f13": affine_symbols().one()})
        pieces = serre_pieces(sab, "F", -1, -1, 0)
        jobs = sab._jobs(pieces)
        fast, = sab.bulk.combo_residual([jobs], VACUUM)
        slow = sab.engine.extract_sum(jobs, VACUUM)
        assert fast is False
        assert slow and all(not c.is_zero() for c in slow.values())
        # at a numeric level the leak spreads over many groups and states,
        # and stage B sees it on each
        jobs = sab_k2._jobs(serre_pieces(sab_k2, "F", -1, -1, 0))
        for state in enumerate_basis(1):
            fast = self.answered(sab_k2, jobs, state)
            assert fast is False and sab_k2.engine.extract_sum(jobs, state)

    def test_pair_residual_matches(self, ctx, sab_k2):
        # weights of one term, of two terms, of the same two numerators over
        # 2 and with a denominator power meet the same branches, so each
        # needs its own cached encoding; each flag says whether the top
        # branch vanishes
        T = ctx.table
        two = T.qpow(LinForm(1)) + T.qpow(LinForm(-1))
        weights = (None, two, two * Fraction(1, 2), T.qdiff_inv())
        for pair in (("E2", 1, "E2", -1), ("E1", 1, "E1", -1)):
            for xi in weights:
                jobs = ctx._jobs(ctx._pair_pieces(*pair, xi))
                for state in enumerate_basis(2)[:10]:
                    assert ctx.bulk.combo_residual([jobs], state) == [top_residual(
                        ctx.engine, jobs, state) == {}]
        # the E2 pair's top and full residuals vanish on every state, the F1
        # pair's on none, and the two passes give the exact path's cases
        basis = enumerate_basis(1)
        for pieces, leaks in ((sab_k2._pair_pieces("E2", 1, "E2", -1), False),
                              (sab_k2._pair_pieces("F1", 0, "F1", -1), True)):
            jobs = sab_k2._jobs(pieces)
            for state in basis:
                fast = self.answered(sab_k2, jobs, state)
                assert fast == (not leaks)
                assert fast == (top_residual(sab_k2.engine, jobs, state) == {})
                assert fast == (sab_k2.engine.extract_sum(jobs, state) == {})
            assert zero_cases(sab_k2, pieces, basis) == exact_cases(sab_k2, pieces, basis)

    def test_cache_entries_stop_growing(self):
        # eq11 builds new weight objects for every relation; the second
        # pass over the same relations must find every encoding it needs
        ctx = AffineContext()
        basis = enumerate_basis(1)

        def entries():
            return sum(len(c) + sum(len(v) for v in c.values() if isinstance(v, dict))
                       for c in vars(ctx.bulk).values() if isinstance(c, dict))

        def tables():
            tabs = ctx.engine._flowtabs
            return len(tabs), sum(len(t.entries) for t in tabs.values()), \
                sum(t.reach for t in tabs.values())

        def pools():
            b = ctx.bulk
            return tuple(p.size for p in (b._entry_stats, b._entry_rows, b._flow_stats,
                                          b._flow_rows))

        sizes = []
        deltas = []
        grown = []
        for _ in range(2):
            check_eq11(ctx, basis, 1)
            check_eq13(ctx, basis, 1)
            sizes.append(entries())
            deltas.append(len(ctx.bulk._occ_ids))
            grown.append((tables(), pools()))
        assert sizes[0] == sizes[1] > 0
        assert deltas[0] == deltas[1] > 0
        # neither the engine's flow tables nor the kernel's run-long pools
        # grow on the second pass
        assert grown[0] == grown[1] and all(grown[0][1])
        # every pooled entry is an entry of the engine's table
        held = {(uids, d) for uids, t in ctx.engine._flowtabs.items() for d, _ in t.entries}
        assert set(ctx.bulk._entry_ids) <= held
        # a bucket list's rows carry the occupation ids of its deltas, and
        # lists that share a delta share its id
        occs = list(ctx.bulk._occ_ids)
        shared = 0
        for dkey, rows in ctx.bulk._p_cache.items():
            if rows is not None:
                ids = set((rows.keys >> bulk._B_OCC_SHIFT).tolist())
                assert {occs[i] for i in ids} == {
                    d for d, _ in ctx.engine.bucket_product_key(dkey)}
                shared += len(ids)
        assert shared > len(occs)
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
                assert fast == (ctx.engine.extract_sum(jobs, state) == {})
            del jobs

    @pytest.mark.parametrize("apart", ["dpow", "den"])
    def test_weights_apart_only_in_dpow_or_den(self, ctx, apart):
        # q, then q/(q - q^-1) or q/2 (the same terms as q), then
        # -(q + other): three jobs per fused term of one instance, whose
        # residual is zero.  A weight key that confuses the first two
        # leaves rows behind, so the flag must read every part of a weight.
        T = ctx.table
        q = T.qpow(LinForm(1))
        other = RingElem(T, {2: 1}, 1) if apart == "dpow" else RingElem(T, {2: 1}, 0, 2)
        assert other.terms == q.terms
        weights = (q, other, -(q + other))
        for names in (("E1", "E1"), ("E1", "E2"), ("E1", "E1", "E2")):
            targets = (-1,) * len(names)
            jobs = [(f, targets, w) for f in ctx.fused_terms(names) for w in weights]
            live = 0
            for state in enumerate_basis(1):
                flag, = ctx.bulk.combo_residual([jobs], state)
                assert flag == (ctx.engine.extract_sum(jobs, state) == {})
                live += bool(ctx.engine.extract_sum(jobs[::3], state))
            assert live  # the q jobs alone leave a residual somewhere

    def test_nonzero_product_not_certified(self, ctx):
        # a single product, not a cancelling combination: its rows survive
        # stage B, so the kernel leaves it to the exact path
        pieces = [(("E1", "F1"), (0, 0), None)]
        jobs = ctx._jobs(pieces)
        fast, = ctx.bulk.combo_residual([jobs], VACUUM)
        assert fast is False and ctx.engine.extract_sum(jobs, VACUUM)
        assert ctx.combo_zero([jobs], VACUUM) == [False]
        assert zero_cases(ctx, pieces, [VACUUM]) == [ctx.engine.extract_sum(jobs, VACUUM)]

    def test_guard_declines_wide_exponents(self, ctx):
        huge = ctx.table.qpow(LinForm(3000))
        pieces = ctx._pair_pieces("E1", 0, "F1", 0, huge)
        jobs = ctx._jobs(pieces)
        with pytest.raises(BulkError):
            ctx.bulk.combo_residual([jobs], VACUUM)
        # pass one reads a trip as not certified, and pass two falls back
        # to the exact path
        assert ctx.combo_zero([jobs], VACUUM) == [False]
        assert zero_cases(ctx, pieces, [VACUUM]) == [ctx.engine.extract_sum(jobs, VACUUM)]

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
            assert fast is False and sab_k2.engine.extract_sum(jobs, state)
        # unchunked, a call merges at most three times (stage A, the
        # deficits, stage B)
        assert len(merges) > 3 * len(states)

    def test_chunks_that_cancel_alone(self, monkeypatch):
        # every piece cancels by itself, so the final merge meets no rows
        monkeypatch.setattr(bulk, "_CHUNK", 2)
        keys, vals = bulk._outer_blocks(
            np.array([5, 5, 9, 9]), np.array([1, -1, 3, -3]), np.array([2, 2]),
            np.array([0, 100]), np.array([1, 1]), np.array([1, 1]))
        assert keys.size == vals.size == 0

    def test_no_stage_a_rows(self, ctx, monkeypatch):
        # a product against its own negative cancels inside stage A
        minus = ctx.table.rational(-1)
        pieces = [(("E1", "F1"), (0, 0), None), (("E1", "F1"), (0, 0), minus)]
        jobs = ctx._jobs(pieces)

        def stage_b(dkey):
            raise AssertionError("stage B reached")

        monkeypatch.setattr(ctx.bulk, "_enc_p", stage_b)
        for state in enumerate_basis(1):
            assert self.answered(ctx, jobs, state) is True
            assert ctx.engine.extract_sum(jobs, state) == {}

    def test_stage_sum_bound_edges(self, ctx):
        jobs = ctx._jobs(ctx._pair_pieces("E1", 0, "F1", 0, ctx.table.rational(2**50)))
        fast = self.answered(ctx, jobs, VACUUM)
        assert fast is False and ctx.engine.extract_sum(jobs, VACUUM)
        pieces = ctx._pair_pieces("E1", 0, "F1", 0, ctx.table.rational(2**58))
        jobs = ctx._jobs(pieces)
        with pytest.raises(BulkError, match="^stage sum bound exceeded$"):
            ctx.bulk.combo_residual([jobs], VACUUM)
        assert ctx.combo_zero([jobs], VACUUM) == [False]
        out, = zero_cases(ctx, pieces, [VACUUM])
        assert out and out == ctx.engine.extract_sum(jobs, VACUUM)


class TestBatchedKernel:
    """eq11 and eq13 make one combo_zero -> combo_residual call per family
    and state that carries every live instance of the family, and each
    instance's flag must say whether the exact path on that instance's own
    jobs, run on the state's top branches, gives zero."""

    def calls(self, ctx, basis, monkeypatch):
        """Every combo_residual call of check_eq11 and check_eq13 at window
        1, as (jobs, state, answer); the kernel must answer each one."""
        seen = []
        real = ctx.bulk.combo_residual

        def record(jobs, state):
            try:
                out = real(jobs, state)
            except BulkError as exc:
                pytest.fail(f"packed engine declined: {exc}")
            # a copy: _zero_cases empties a settled instance's slot later
            seen.append((list(jobs), state, out))
            return out

        monkeypatch.setattr(ctx.bulk, "combo_residual", record)
        check_eq11(ctx, basis, 1)
        check_eq13(ctx, basis, 1)
        return seen

    @pytest.mark.parametrize("E_cut", [0, 1])
    @pytest.mark.parametrize("level", ["formal", "k2_f13"])
    def test_each_instance_matches_exact(self, level, E_cut, monkeypatch):
        ctx = (AffineContext() if level == "formal" else
               AffineContext(k=2, f_overrides={"f13": affine_symbols(2).one()}))
        basis = enumerate_basis(E_cut)
        seen = self.calls(ctx, basis, monkeypatch)
        assert len(seen) == 2 * len(basis)
        nonzero = mixed = 0
        for jobs, state, out in seen:
            assert len(out) == len(jobs) > 1
            for inst_jobs, got in zip(jobs, out):
                assert got == (top_residual(ctx.engine, inst_jobs, state) == {})
            nonzero += out.count(False)
            mixed += any(out) and not all(out)
        # at f13 = 1 one call holds vanishing and leaking instances side by
        # side, so a flag credited to the wrong instance shows
        assert (nonzero > 0, mixed > 0) == ((True, True) if level == "k2_f13" else (False, False))

    def test_one_call_per_state(self, monkeypatch):
        # the affine_full_e1w1 configuration: one call per family and state
        # carries all 630 (instance, state) job lists
        ctx = AffineContext()
        basis = enumerate_basis(1)
        calls = []
        real = ctx.bulk.combo_residual

        def counted(jobs, state):
            calls.append(len(jobs))
            return real(jobs, state)

        monkeypatch.setattr(ctx.bulk, "combo_residual", counted)
        check_eq11(ctx, basis, 1)
        check_eq13(ctx, basis, 1)
        assert len(calls) == 2 * len(basis) == 14
        assert sum(calls) == 630

    def test_call_state_is_call_local(self, monkeypatch):
        # a call builds its own branch tables, weighted bases and momentum,
        # sector, meta and denominator registries: replayed after a full
        # pass, each of the last calls leaves ctx.bulk holding what a fresh
        # kernel on the same engine holds after it
        ctx = AffineContext()
        seen = self.calls(ctx, enumerate_basis(1), monkeypatch)
        monkeypatch.undo()
        fresh = BulkEngine(ctx.engine)

        def call_state(b):
            return (b._base_stats.size, b._base_rows.size, len(b._mom_ids),
                    len(b._meta_ids), len(b._den_ids))

        for jobs, state, out in seen[-3:]:
            assert ctx.bulk.combo_residual(jobs, state) == fresh.combo_residual(jobs, state) == out
            assert call_state(ctx.bulk) == call_state(fresh)
            assert all(call_state(fresh))

    @pytest.mark.parametrize("level, exact_calls", [("formal", [0, 0]), ("k2_f13", [6, 15])])
    def test_exact_only_where_not_certified(self, level, exact_calls, monkeypatch):
        # the exact path runs once per failing relation, on the first state
        # where its residual is nonzero: the kernel certifies every zero
        # top branch, and an instance that was not certified sends an empty
        # job list from then on
        assert self.exact_calls(level, 1, monkeypatch) == exact_calls

    def test_exact_only_where_not_certified_two_letters(self, monkeypatch):
        # E_cut=2 has two-letter states, some of which sort before a
        # sub-occupation; still one exact call per failing relation
        assert self.exact_calls("k2_f13", 2, monkeypatch) == [8, 17]

    def exact_calls(self, level, E_cut, monkeypatch):
        """The exact calls that check_eq11 and check_eq13 make, per family,
        each one asserted to leak, with the kernel's calls checked."""
        ctx = _level_ctx(level)
        basis = enumerate_basis(E_cut)
        exact, sizes, dropped_now = [], [], []
        real_exact = ctx.engine.extract_sum
        real_kernel = ctx.bulk.combo_residual
        real_zero = ctx.combo_zero

        def counted_exact(jobs, state):
            out = real_exact(jobs, state)
            exact.append(bool(out))
            return out

        def kernel(jobs, state):
            sizes.append((state, [len(j) for j in jobs]))
            return real_kernel(jobs, state)

        def zero(jobs, state):
            out = real_zero(jobs, state)
            dropped_now.append([k for k, ok in enumerate(out) if not ok])
            return out

        monkeypatch.setattr(ctx.engine, "extract_sum", counted_exact)
        monkeypatch.setattr(ctx.bulk, "combo_residual", kernel)
        monkeypatch.setattr(ctx, "combo_zero", zero)
        made = []
        for check in (check_eq11, check_eq13):
            exact.clear()
            fails = sum(r.status == "fail" for r in check(ctx, basis, 1))
            assert len(exact) == fails and all(exact)
            made.append(len(exact))
        assert len(sizes) == len(dropped_now) == 2 * len(basis)
        dropped = set()
        for (state, lens), now in zip(sizes, dropped_now):
            if state == basis[0]:  # the first state of a family
                dropped = set()
            assert all((n == 0) == (k in dropped) for k, n in enumerate(lens))
            dropped.update(now)
        return made

    def test_results_match_per_instance_loop(self, sab_k2, monkeypatch):
        # the reference is the per-instance loop on the exact path, every
        # residual passed in full: the same verdicts, witnesses, checked
        # counts and oracle blocks, though later residuals of a failing
        # instance are dropped
        basis = enumerate_basis(1)
        batched = check_eq11(sab_k2, basis, 1) + check_eq13(sab_k2, basis, 1)

        def per_instance(ctx, basis, instances):
            return [(params, [
                (format_state(s), ctx.engine.extract_sum(ctx._jobs(pieces), s), {})
                for s in basis]) for params, pieces in instances]

        monkeypatch.setattr(affine, "_zero_cases", per_instance)
        reference = check_eq11(sab_k2, basis, 1) + check_eq13(sab_k2, basis, 1)
        assert [r.to_json() for r in batched] == [r.to_json() for r in reference]
        assert sum(r.status == "fail" for r in batched) == 6 + 15

    def test_small_chunks(self, sab_k2, monkeypatch):
        # _CHUNK = 5 cuts every product of every instance into pieces: at
        # f13 = 1 some instances leak, and at the formal level many stage-B
        # rows cancel only against rows of a later piece
        merges = []
        real = bulk._reduce

        def counted(k, v):
            merges.append(k.size)
            return real(k, v)

        monkeypatch.setattr(bulk, "_reduce", counted)
        monkeypatch.setattr(bulk, "_CHUNK", 5)
        for ctx, leaky in ((sab_k2, True), (AffineContext(), False)):
            merges.clear()
            jobs = [ctx._jobs(serre_pieces(ctx, "F", n1, n2, m))
                    for n1, n2, m in itertools.product((-1, 0, 1), repeat=3) if n1 <= n2]
            leaks = 0
            for state in enumerate_basis(1)[:4]:
                fast = ctx.bulk.combo_residual(jobs, state)
                assert fast == [ctx.engine.extract_sum(j, state) == {} for j in jobs]
                leaks += fast.count(False)
            assert bool(leaks) == leaky
            assert len(merges) > 3 * 4 * len(jobs)

    def test_group_guard_edge(self, sab_k2, monkeypatch):
        # the smallest _GID_MAX that answers, and one below it: the guard
        # trips and combo_zero answers every instance on the exact path
        # with its own jobs
        pieces = [serre_pieces(sab_k2, "F", n1, n2, m)
                  for n1, n2, m in ((-1, -1, 0), (0, 0, 0), (-1, 1, 1), (1, 1, 1))]
        jobs = [sab_k2._jobs(p) for p in pieces]
        state = enumerate_basis(1)[1]
        slow = [top_residual(sab_k2.engine, j, state) for j in jobs]
        assert any(slow) and not all(slow)

        def answer(limit):
            monkeypatch.setattr(bulk, "_GID_MAX", limit)
            try:
                return sab_k2.bulk.combo_residual(jobs, state)
            except BulkError as exc:
                assert str(exc) == "group registry full"
                return None

        flags = [s == {} for s in slow]
        lo, hi = 0, 1 << 20
        assert answer(hi) == flags
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if answer(mid) is None else (lo, mid)
        assert answer(hi) == flags
        assert answer(hi - 1) is None
        assert sab_k2.combo_zero(jobs, state) == [False] * len(jobs)
        # a trip on the first state leaves every state of every instance to
        # the exact path, each instance with its own jobs
        monkeypatch.setattr(bulk, "_GID_MAX", 0)
        basis = enumerate_basis(1)
        asked = []
        real = sab_k2.engine.extract_sum

        def exact(j, s):
            asked.append(j)
            return real(j, s)

        monkeypatch.setattr(sab_k2.engine, "extract_sum", exact)
        instances = [({}, p) for p in pieces]
        got = [[res for _, res, _ in cases]
               for _, cases in affine._zero_cases(sab_k2, basis, instances)]
        monkeypatch.undo()
        assert got == [exact_cases(sab_k2, p, basis) for p in pieces]
        assert all(a in jobs for a in asked) and all(j in asked for j in jobs)


def _refuse(self, jobs, state):
    raise BulkError("row value overflow")


class TestTopBranches:
    """The lemma behind _zero_cases: on a basis closed under
    sub-occupations, a residual vanishes on every state exactly when its
    top branch (the part that annihilates every letter) does on every
    state, so the kernel certifies top branches only."""

    @pytest.mark.parametrize("norm", ["l1", "box"])
    @pytest.mark.parametrize("radius", [0, 1])
    @pytest.mark.parametrize("E_cut", [0, 1, 2, 3])
    def test_bases_closed(self, E_cut, radius, norm):
        # one copy of one letter less stays in the basis, so every
        # sub-occupation does
        basis = enumerate_basis(E_cut, radius, norm)
        have = set(basis)
        for s in basis:
            for (fam, m), _ in s.occ:
                assert s.with_creation(fam, m, -1) in have
        reach = affine._sub_reach(basis)
        assert reach is not None and len(reach) == len(basis)
        if E_cut <= 2 and radius == 0:
            # each state's last sub-occupation in basis order, by brute force
            def within(a, b):
                return all(mult <= dict(b.occ).get(mode, 0) for mode, mult in a.occ)
            assert reach == [max(i for i, t in enumerate(basis)
                                 if t.momenta == s.momenta and within(t, s)) for s in basis]
        if E_cut:  # without its vacua, no excited state keeps its sub-occupations
            assert affine._sub_reach([t for t in basis if t.occ]) is None

    @pytest.mark.parametrize("E_cut", [0, 1, 2])
    @pytest.mark.parametrize("level", ["formal", "k2_f13"])
    def test_top_statuses_match_full(self, level, E_cut, monkeypatch):
        # on the exact path alone, every eq11 and eq13 instance: its
        # residual is zero on every state exactly when its top branch is
        monkeypatch.setattr(BulkEngine, "combo_residual", _refuse)
        ctx = _level_ctx(level)
        basis = enumerate_basis(E_cut)

        def statuses():
            res = check_eq11(ctx, basis, 1) + check_eq13(ctx, basis, 1)
            return {r.id: r.status for r in res}

        full = statuses()
        with top_only(ctx.engine):
            top = statuses()
        assert len(full) == 54 + 36
        assert top == full
        fails = sum(status == "fail" for status in full.values())
        assert fails == (0 if level == "formal" else {0: 13, 1: 21, 2: 25}[E_cut])

    def test_closed_basis_in_any_order(self, monkeypatch):
        # the basis reversed, vacuum last: a state can now come before a
        # sub-occupation whose top branch leaks, and must still go to the
        # exact path, so the results equal the all-exact path's
        basis = enumerate_basis(1)[::-1]
        ctx = _level_ctx("k2_f13")
        got = [r.to_json() for r in check_eq11(ctx, basis, 1) + check_eq13(ctx, basis, 1)]
        monkeypatch.setattr(BulkEngine, "combo_residual", _refuse)
        exact = _level_ctx("k2_f13")
        want = [r.to_json() for r in check_eq11(exact, basis, 1) + check_eq13(exact, basis, 1)]
        assert got == want
        assert sum(r["status"] == "fail" for r in want) == 6 + 15

    def test_non_closed_basis_all_exact(self, monkeypatch):
        # one excited state alone lacks its sub-occupations: no kernel call,
        # and the cases are those of the all-exact path, although on some of
        # these states a failing instance has a zero top branch
        ctx = _level_ctx("k2_f13")
        states = enumerate_basis(1)[1:]
        calls = []
        real = ctx.bulk.combo_residual
        monkeypatch.setattr(ctx.bulk, "combo_residual",
                            lambda jobs, state: calls.append(state) or real(jobs, state))
        got = [[r.to_json() for r in check_eq11(ctx, [s], 1) + check_eq13(ctx, [s], 1)]
               for s in states]
        assert not calls
        exact = _level_ctx("k2_f13")
        instances = []
        real_cases = affine._zero_cases

        def record(c, basis, insts):
            instances.extend(insts)
            return real_cases(c, basis, insts)

        monkeypatch.setattr(BulkEngine, "combo_residual", _refuse)
        monkeypatch.setattr(affine, "_zero_cases", record)
        want = [[r.to_json() for r in check_eq11(exact, [s], 1) + check_eq13(exact, [s], 1)]
                for s in states]
        assert got == want
        jobs = [exact._jobs(pieces) for _, pieces in instances[:54 + 36]]
        hidden = sum(top_residual(exact.engine, j, s) == {} and bool(exact.engine.extract_sum(j, s))
                     for s in states for j in jobs)
        assert hidden


_EQ11_PAIRS = [(pref, i, j) for pref in "EF" for i, j in ((1, 1), (1, 2), (2, 2))]


class TestPackedGuards:
    """BulkEngine._enc at its field edges, and the kernel against the exact
    path on weights that straddle them: a flag that says whether extract_sum
    is zero, or BulkError, never a third behaviour."""

    def test_exponent_edges(self, ctx):
        T = ctx.table
        for extra in ({}, {"e11": 1, "G": 3}):
            for e in (4095, -4096):
                enc = ctx.bulk._enc(T.monomial({"q": e, **extra}))
                assert enc.vals.tolist() == [1]
            for e in (4096, -4097):
                with pytest.raises(BulkError, match="^exponent outside packed range$"):
                    ctx.bulk._enc(T.monomial({"q": e, **extra}))

    def test_numerator_edges(self, ctx):
        T = ctx.table
        for sign in (1, -1):
            enc = ctx.bulk._enc(T.rational(sign * (2**62 - 1)))
            assert enc.vals.tolist() == [sign * (2**62 - 1)]
            with pytest.raises(BulkError, match="^numerator outside packed range$"):
                ctx.bulk._enc(T.rational(sign * 2**62))
        # the numerator counts over the scalar's common denominator
        mixed = T.rational(Fraction(2**61, 3)) + T.monomial({"q": 2}, Fraction(1, 2))
        with pytest.raises(BulkError, match="^numerator outside packed range$"):
            ctx.bulk._enc(mixed)

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
        slow = top_residual(ctx.engine, jobs, state)
        try:
            fast, = ctx.bulk.combo_residual([jobs], state)
        except BulkError:
            return
        assert fast == (slow == {})


def _ring_elems(root):
    """Every RingElem reachable from root through containers and the
    attributes of uqsl objects, each once."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, RingElem):
            yield obj
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("uqsl."):
            if hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
            for cls in type(obj).__mro__:
                stack.extend(getattr(obj, a) for a in getattr(cls, "__slots__", ())
                             if hasattr(obj, a))


class TestIntegerCoefficients:
    def test_no_fraction_left_in_caches(self):
        # every family at E_cut=1, window=1 (the affine_full_e1w1 workload),
        # then every element the context still holds
        ctx = AffineContext()
        opts = {"ctx": ctx, "basis": enumerate_basis(1), "window": 1, "psi_nmax": 2}
        for family in affine.FAMILIES.values():
            report.run_family(family, opts)
        elems = list(_ring_elems(ctx))
        assert len(elems) > 5_000
        assert all(type(c) is int for el in elems for c in el.terms.values())
        assert all(type(el.den) is int and el.den >= 1 for el in elems)
        assert any(el.den > 1 for el in elems)


class TestDenominatorFree:
    """The packed kernel encodes flow maps and creation buckets without a
    power of (q - q^-1): every contraction-series and creation coefficient
    of the realization is a Laurent polynomial in q."""

    def fused_names(self, ctx, monkeypatch):
        names = set()
        jobs = ctx._jobs

        def record(pieces):
            names.update(nm for nm, _, _ in pieces)
            return jobs(pieces)

        def vec(pieces, state):
            record(pieces)
            return {}

        monkeypatch.setattr(ctx, "_jobs", record)  # the kernel families' pieces
        monkeypatch.setattr(ctx, "combo_zero", lambda jobs, state: [{} for _ in jobs])
        monkeypatch.setattr(ctx, "combo_vec", vec)
        for check in (check_eq10, check_eq11, check_eq12, check_eq13):
            check(ctx, [VACUUM], 0)
        return sorted(names)

    @pytest.mark.parametrize("level", ["formal", "k2_f13"])
    def test_flows_and_buckets(self, level, monkeypatch):
        ctx = (AffineContext() if level == "formal" else
               AffineContext(k=2, f_overrides={"f13": affine_symbols(2).one()}))
        names = self.fused_names(ctx, monkeypatch)
        # eq10's psi pieces are the products of arity 1
        assert {len(nm) for nm in names} == {1, 2, 3}
        assert {nm[0][0] for nm in names} == {"E", "F", "p"}
        dkeys = set()
        for nm in names:
            for fused in ctx.fused_terms(nm):
                for res in itertools.product(range(-1, 3), repeat=len(nm)):
                    for dkey, _, scalar in ctx.engine.flows_map(fused, res):
                        assert scalar.dpow == 0, (nm, res, dkey)
                        assert scalar.den == 1, (nm, res, dkey)
                        assert all(type(c) is int for c in scalar.terms.values())
                        dkeys.add(dkey)
        assert dkeys
        for dkey in dkeys:
            assert all(p.dpow == 0 for _, p in ctx.engine.bucket_product_key(dkey)), dkey

    @pytest.mark.parametrize("builder", ["flows_map", "bucket_product_key"])
    def test_denominator_refused(self, builder, monkeypatch):
        # one scalar of every flow map (or bucket list) divided by
        # (q - q^-1): the kernel declines and _zero_cases answers exactly
        ctx = AffineContext()
        real = getattr(ctx.engine, builder)
        inv = ctx.table.qdiff_inv()

        def tainted(*args):
            # flows_map gives (dkey, delta, scalar), bucket_product_key
            # (delta, scalar): the scalar is last in both
            out = list(real(*args))
            if out:
                out[0] = (*out[0][:-1], out[0][-1] * inv)
            return out

        monkeypatch.setattr(ctx.engine, builder, tainted)
        pieces = [(("E1", "F1"), (0, 0), None)]
        jobs = ctx._jobs(pieces)
        with pytest.raises(BulkError, match="^denominator power above target$"):
            ctx.bulk.combo_residual([jobs], VACUUM)
        slow = ctx.engine.extract_sum(jobs, VACUUM)
        assert slow and any(c.dpow for c in slow.values())
        assert ctx.combo_zero([jobs], VACUUM) == [False]
        assert zero_cases(ctx, pieces, [VACUUM]) == [slow]


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
            for base, annE, _, occ_after in branches:
                res = tuple(
                    targets[v] - fused.p0s[v] - taueig[v] + annE[v] for v in range(r))
                if sum(res) >= 0:
                    out.append((fused, res, base, weight, momenta, occ_after))
        return out

    def test_quadratic_and_serre_jobs(self, monkeypatch):
        ctx = AffineContext()
        basis = enumerate_basis(1)
        # the states of the window, plus momenta that move the z-powers
        walk = basis + enumerate_basis(0, 1)[1:]
        seen = []  # each relation instance's jobs

        def record_zero(jobs, state):
            if state == basis[0]:
                seen.extend(jobs)
            return [True] * len(jobs)

        def record_vec(pieces, state):  # eq12's exact path
            if state == basis[0]:
                seen.append(ctx._jobs(pieces))
            return {}

        monkeypatch.setattr(ctx, "combo_zero", record_zero)
        monkeypatch.setattr(ctx, "combo_vec", record_vec)
        check_eq11(ctx, basis, 1)
        check_eq12(ctx, basis, 1)
        check_eq13(ctx, basis, 1)
        assert len(seen) == 54 + 12 + 36
        walked = 0
        memo = {}
        for jobs in seen:
            for state in walk:
                got = list(ctx.engine.residues(jobs, state))
                want = self.reference(ctx.engine, jobs, state, memo)
                assert len(got) == len(want)
                cached = {}
                for g, w in zip(got, want):
                    assert g[0] is w[0] and g[2] == w[2] and g[3] is w[3]
                    assert g[1] == w[1] and list(map(type, g[1])) == list(map(type, w[1]))
                    assert g[4:] == w[4:]
                    # the base is the scalar of the engine's own cached branch
                    if g[0].uid not in cached:
                        cached[g[0].uid] = {id(b[0]) for b
                                            in ctx.engine._branches[state][g[0].uid][0]}
                    assert id(g[2]) in cached[g[0].uid]
                walked += len(got)
        assert walked

    def test_flow_degrees_nonnegative(self):
        # flows_map filters no degree: its walk bounds alone must keep each
        # variable's creation degree >= 0 for one, two and three variables,
        # and every contraction only moves degree between variables
        engine, reached = _reached_residues("formal")
        assert {len(res) for _, res in reached} == {1, 2, 3}
        flows = 0
        for (_, res), fused in reached.items():
            for dkey, delta, _ in engine.flows_map(fused, res):
                assert all(d > 0 for _, d in dkey), (res, dkey)
                assert sum(d for _, d in dkey) == sum(res), (res, dkey)
                assert sum(delta) == 0 and min(d + x for d, x in zip(delta, res)) >= 0
                flows += 1
        assert flows

    @pytest.mark.parametrize("level", ["formal", "k2_f13"])
    def test_flows_match_reference(self, level):
        # one walk over variable pairs gives the arity loops' flow maps term
        # for term: same dkeys and deltas in the same order, same terms,
        # same dpow
        engine, reached = _reached_residues(level)
        assert {len(res) for _, res in reached} == {1, 2, 3}
        for (_, res), fused in reached.items():
            got = engine.flows_map(fused, res)
            _same_flows(got, _reference_flows_map(engine, fused, res), res)
            assert [delta for _, delta, _ in got] == _reference_deltas(engine, fused, res), res


@functools.lru_cache(maxsize=None)
def _reached_residues(level):
    """Every (fused, res) that eq10-eq13 reach at E_cut=1, window=1, keyed
    (fused.uid, res), with the context's engine.  Both paths ask flows_map
    once for every reached residue, so its calls are the record."""
    ctx = (AffineContext() if level == "formal" else
           AffineContext(k=2, f_overrides={"f13": affine_symbols(2).one()}))
    basis = enumerate_basis(1)
    reached = {}
    real = ctx.engine.flows_map

    def record(fused, res):
        reached[fused.uid, res] = fused
        return real(fused, res)

    ctx.engine.flows_map = record
    try:
        for check in (check_eq10, check_eq11, check_eq12, check_eq13):
            check(ctx, basis, 1)
    finally:
        del ctx.engine.flows_map
    return ctx.engine, reached


def _reference_flows(engine, fused, res):
    """The arity loops flows_map replaced: creation degrees per variable and
    the series scalar of each distribution of contraction orders."""
    r = len(res)
    vts = fused.vterms
    coeff = engine._series_coeff
    if r == 1:
        if res[0] >= 0:
            yield (res[0],), engine.table.one()
        return
    if r == 2:
        for l in range(max(0, -res[0]), res[1] + 1):
            c = coeff(vts[0], vts[1], l)
            if not c.is_zero():
                yield (res[0] + l, res[1] - l), c
        return
    assert r == 3
    for l12 in range(0, res[2] + 1):
        c12 = coeff(vts[1], vts[2], l12)
        if c12.is_zero():
            continue
        for l02 in range(0, res[2] - l12 + 1):
            c02 = coeff(vts[0], vts[2], l02)
            if c02.is_zero():
                continue
            base = c12 * c02
            for l01 in range(max(0, -res[0] - l02), res[1] + l12 + 1):
                c01 = coeff(vts[0], vts[1], l01)
                if not c01.is_zero():
                    yield (res[0] + l01 + l02, res[1] + l12 - l01, res[2] - l02 - l12), base * c01


def _reference_flows_map(engine, fused, res):
    local = {}
    for dvec, ss in _reference_flows(engine, fused, res):
        prev = local.get(dvec)
        local[dvec] = ss if prev is None else prev + ss
    return tuple(
        (tuple(sorted((vt.uid, d) for vt, d in zip(fused.vterms, dvec) if d)), s)
        for dvec, s in local.items() if not s.is_zero()
    )


def _reference_deltas(engine, fused, res):
    """d - res for each entry of _reference_flows_map, in its order."""
    local = {}
    for dvec, ss in _reference_flows(engine, fused, res):
        prev = local.get(dvec)
        local[dvec] = ss if prev is None else prev + ss
    return [tuple(d - x for d, x in zip(dvec, res)) for dvec, s in local.items() if not s.is_zero()]


def _walk_flows_map(engine, fused, res):
    """flows_map as it was before the flow tables: one walk over the
    contraction orders per residue, for any number of variables.  Returns
    its (dkey, scalar) pairs and each pair's d - res."""
    r = len(res)
    vts = fused.vterms
    local = {}

    def walk(pairs, i, deg, scalar):
        if i == len(pairs):
            dvec = tuple(deg)
            prev = local.get(dvec)
            local[dvec] = scalar if prev is None else prev + scalar
            return
        a, b = pairs[i]
        for l in range(max(0, -deg[a]) if b == a + 1 else 0, deg[b] + 1):
            c = engine._series_coeff(vts[a], vts[b], l)
            if c.is_zero():
                continue
            deg[a] += l
            deg[b] -= l
            walk(pairs, i + 1, deg, c if scalar is None else scalar * c)
            deg[a] -= l
            deg[b] += l

    if r > 1:
        walk([(a, b) for b in range(r - 1, 0, -1) for a in range(b - 1, -1, -1)],
             0, list(res), None)
    elif res[0] >= 0:
        local[tuple(res)] = engine.table.one()
    kept = [(dvec, s) for dvec, s in local.items() if not s.is_zero()]
    return (tuple((tuple(sorted((vt.uid, d) for vt, d in zip(vts, dvec) if d)), s)
                  for dvec, s in kept),
            [tuple(d - x for d, x in zip(dvec, res)) for dvec, _ in kept])


def _same_flows(got, want, res):
    """flows_map's triples against reference (dkey, scalar) pairs: same
    dkeys in the same order, each scalar stored identically."""
    assert [dkey for dkey, _, _ in got] == [dkey for dkey, _ in want], res
    for (_, _, g), (_, w) in zip(got, want):
        assert list(g.terms.items()) == list(w.terms.items()), res
        assert (g.dpow, g.den) == (w.dpow, w.den), res


def _level_ctx(level):
    return (AffineContext() if level == "formal" else
            AffineContext(k=2, f_overrides={"f13": affine_symbols(2).one()}))


@contextlib.contextmanager
def top_only(engine):
    """engine.branches keeps only the top branches, those that annihilate
    every letter of the state (occ_after empty): the branches the kernel
    certifies."""
    real = engine.branches

    def top(fused, state):
        branches, taueig, momenta = real(fused, state)
        return [b for b in branches if not b[3]], taueig, momenta

    engine.branches = top
    try:
        yield
    finally:
        del engine.branches


def top_residual(engine, jobs, state):
    """The top branch of extract_sum(jobs, state), on the exact path: what
    combo_residual's flag says is zero or not."""
    with top_only(engine):
        return engine.extract_sum(jobs, state)


def zero_cases(ctx, pieces, basis):
    """_zero_cases on one instance: its residual per state of basis."""
    (_, cases), = affine._zero_cases(ctx, basis, [({}, pieces)])
    assert [label for label, _, _ in cases] == [format_state(s) for s in basis]
    return [res for _, res, _ in cases]


def exact_cases(ctx, pieces, basis):
    """What _zero_cases must give one instance: its exact residual per state
    up to the first nonzero one, then {}."""
    jobs = ctx._jobs(pieces)
    out = []
    for s in basis:
        out.append({} if any(out) else ctx.engine.extract_sum(jobs, s))
    return out


class TestFlowTable:
    """flows_map reads one residue-free table per vertex-term tuple: the
    scalar of degree vector d is the table's entry for delta = d - res, and
    the pairs come in the order of the entries' first order vectors.  That
    must give the per-residue walk's entries in its order, whatever residues
    filled the table before."""

    @pytest.mark.parametrize("level", ["formal", "k2_f13"])
    def test_every_kernel_term_and_residue(self, level, monkeypatch):
        # every fused term eq10-eq13 use, at every residue in range(-2, 4)^r,
        # on two fresh contexts that fill their tables in opposite orders
        names = TestDenominatorFree().fused_names(_level_ctx(level), monkeypatch)
        assert {len(nm) for nm in names} == {1, 2, 3}
        for order in (1, -1):
            ctx = _level_ctx(level)
            engine = ctx.engine
            pairs = 0
            for nm in names:
                for fused in ctx.fused_terms(nm):
                    for res in list(itertools.product(range(-2, 4), repeat=len(nm)))[::order]:
                        got = engine.flows_map(fused, res)
                        _same_flows(got, _reference_flows_map(engine, fused, res), res)
                        assert [d for _, d, _ in got] == _reference_deltas(
                            engine, fused, res), res
                        pairs += len(got)
            assert pairs > 10_000

    def test_four_variables_match_walk(self):
        # the pre-table walk, kept above, on four-variable products: two
        # distinct currents twice, and one current three times (repeated
        # vertex terms, whose permuted tuples have their own tables)
        ctx = AffineContext()
        engine = ctx.engine
        pairs = 0
        for nm in (("E1", "F1", "E2", "F2"), ("F1", "F2", "F1", "F1")):
            for fused in ctx.fused_terms(nm)[::5]:
                for res in itertools.product(range(-1, 3), repeat=4):
                    want, deltas = _walk_flows_map(engine, fused, res)
                    got = engine.flows_map(fused, res)
                    _same_flows(got, want, res)
                    assert [d for _, d, _ in got] == deltas, res
                    pairs += len(got)
        assert pairs > 1_000

    def test_one_fill_per_table_per_call(self, monkeypatch):
        # eq11 and eq13 at E_cut=1, window=1 (affine_full_e1w1): the kernel
        # asks each table for its largest residue first, so no call fills a
        # flow table twice; a table is filled again only by a later state
        # that reaches further
        ctx = AffineContext()
        calls, fills = [], []
        real_walk = ctx.engine._walk_orders
        real_kernel = ctx.bulk.combo_residual

        def walk(vts, pairs, i, *args):
            if i == 0:
                fills.append((len(calls), tuple(vt.uid for vt in vts)))
            return real_walk(vts, pairs, i, *args)

        def kernel(jobs, state):
            calls.append(state)
            return real_kernel(jobs, state)

        monkeypatch.setattr(ctx.engine, "_walk_orders", walk)
        monkeypatch.setattr(ctx.bulk, "combo_residual", kernel)
        basis = enumerate_basis(1)
        check_eq11(ctx, basis, 1)
        check_eq13(ctx, basis, 1)
        assert len(calls) == 14
        assert len(set(fills)) == len(fills) == 372
        assert len({uids for _, uids in fills}) == len(ctx.engine._flowtabs) == 188

    def test_kernel_encodes_each_entry_once(self, monkeypatch):
        # eq11 and eq13 at E_cut=1, window=1 (affine_full_e1w1): 5,234 flow
        # maps with 7,162 entries hold 850 distinct (vertex-term uids, delta)
        # scalars, and the kernel encodes each of those once
        ctx = AffineContext()
        basis = enumerate_basis(1)
        maps = []
        real_flows = ctx.engine.flows_map

        def flows(fused, res):
            out = real_flows(fused, res)
            maps.append((fused, res, out))
            return out

        encoded = []
        real_enc = ctx.bulk._enc_flow

        def enc(scalar):
            encoded.append(scalar)
            return real_enc(scalar)

        monkeypatch.setattr(ctx.engine, "flows_map", flows)
        monkeypatch.setattr(ctx.bulk, "_enc_flow", enc)
        check_eq11(ctx, basis, 1)
        check_eq13(ctx, basis, 1)
        assert len(maps) == len({(f.uid, res) for f, res, _ in maps}) == 5_234
        assert sum(len(out) for _, _, out in maps) == 7_162
        keys = {(f.uids, delta) for f, _, out in maps for _, delta, _ in out}
        assert len(encoded) == len(keys) == len(ctx.bulk._entry_ids) == 850
        assert set(ctx.bulk._entry_ids) == keys
        # each pooled entry holds its table scalar's numerators, in order
        E, ER = ctx.bulk._entry_stats.cols, ctx.bulk._entry_rows.cols
        for (uids, delta), i in ctx.bulk._entry_ids.items():
            s, = [s for d, s in ctx.engine._flowtabs[uids].entries if d == delta]
            start = int(E["start"][i])
            assert ER["vals"][start:start + int(E["n"][i])].tolist() == list(s.terms.values())


class TestFlowDenominators:
    """Flow scalars of the realization have den 1, and the kernel takes
    them only so.  Scaled by a rule on delta (the pools key a scalar by
    delta), some entries of a flow map get a denominator, and the kernel
    must refuse every call that meets one."""

    def scale(self, ctx, monkeypatch, rule):
        real = ctx.engine.flows_map

        def flows(fused, res):
            return tuple((dkey, delta, s * rule(delta)) for dkey, delta, s in real(fused, res))

        monkeypatch.setattr(ctx.engine, "flows_map", flows)

    def mixed_maps(self, ctx, jobs, states):
        return sum(len({d[0] % 2 for _, d, _ in ctx.engine.flows_map(fused, res)}) == 2
                   for state in states
                   for fused, res, *_ in ctx.engine.residues(jobs, state))

    def test_non_integral_entry_refused(self, monkeypatch):
        # entries over 2 beside entries over 1: a call whose top branches
        # meet a flow map with one is refused, any other is answered, and
        # _zero_cases gives the exact residuals either way
        ctx = AffineContext()
        self.scale(ctx, monkeypatch, lambda d: Fraction(1, 2) if d[0] % 2 else Fraction(3))
        pieces = [(("E1", "F1"), (0, 0), None), (("F1", "E2"), (1, -1), None)]
        jobs = ctx._jobs(pieces)
        states = enumerate_basis(1)
        with top_only(ctx.engine):
            assert self.mixed_maps(ctx, jobs, states)
        refused = answered = nonzero = 0
        for state in states:
            with top_only(ctx.engine):
                top = ctx.engine.extract_sum(jobs, state)
                mixed = any(s.den != 1 for fused, res, *_ in ctx.engine.residues(jobs, state)
                            for _, _, s in ctx.engine.flows_map(fused, res))
            if mixed:
                with pytest.raises(BulkError, match="^flow numerator outside packed range$"):
                    ctx.bulk.combo_residual([jobs], state)
                assert ctx.combo_zero([jobs], state) == [False]
                refused += 1
            else:
                assert ctx.combo_zero([jobs], state) == [top == {}]
                answered += 1
            nonzero += top != {}
        assert refused and answered and nonzero
        assert zero_cases(ctx, pieces, states) == exact_cases(ctx, pieces, states)

    def test_lifted_numerator_refused(self, monkeypatch):
        # entries below 2^62 each, over 1 and over 9: the entries over 9
        # refuse the map before any row, so no lift onto 9 carries the
        # first ones past 2^62
        ctx = AffineContext()
        self.scale(ctx, monkeypatch, lambda d: Fraction(1, 9) if d[0] % 2 else 2**59)
        pieces = [(("E1", "F1"), (0, 0), None)]
        jobs = ctx._jobs(pieces)
        basis = enumerate_basis(1)
        with top_only(ctx.engine):
            states = [s for s in basis if self.mixed_maps(ctx, jobs, [s])]
        assert states
        for state in states[:3]:
            with pytest.raises(BulkError, match="^flow numerator outside packed range$"):
                ctx.bulk.combo_residual([jobs], state)
            assert ctx.combo_zero([jobs], state) == [False]
        assert zero_cases(ctx, pieces, basis) == exact_cases(ctx, pieces, basis)


def _instance_pieces(ctx, family, window):
    """(params, pieces) of every instance of an eq10-eq13 family."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ctx, "combo_vec", lambda pieces, state: pieces)
        m.setattr(affine, "_zero_cases", lambda ctx, basis, instances: instances)
        out = []
        for params, cases in family.__wrapped__(ctx, [VACUUM], window):
            if family in (check_eq10, check_eq12):
                (_, cases, _), = cases
            out.append((params, cases))
    return out


class TestModeByModeRoute:
    """A second route for eq10-eq13: the joint extraction of an instance's
    pieces against the same weighted sum applied one mode at a time."""

    @staticmethod
    def weighted_sum(vecs):
        out = {}
        for vec, weight in vecs:
            for s, c in vec.items():
                add_term(out, s, c if weight is None else c * weight)
        return out

    @pytest.mark.parametrize("level", ["formal", "k2_f13"])
    def test_every_instance_at_e0w1(self, level):
        ctx = _level_ctx(level)
        basis = enumerate_basis(0)
        counts, leaks = {}, 0
        for family in (check_eq10, check_eq11, check_eq12, check_eq13):
            instances = _instance_pieces(ctx, family, 1)
            counts[family.__name__] = len(instances)
            for params, pieces in instances:
                for s in basis:
                    want = self.weighted_sum(
                        (ctx.product_vec(names, modes, s), weight)
                        for names, modes, weight in pieces)
                    assert ctx.combo_vec(pieces, s) == want, (family.__name__, params)
                    leaks += bool(want)
        assert counts == {"check_eq10": 36, "check_eq11": 54,
                          "check_eq12": 12, "check_eq13": 36}
        assert (leaks > 0) == (level == "k2_f13")

    @pytest.mark.parametrize("level", ["formal", "k2_f13"])
    def test_eq10_against_two_sides(self, level):
        # the residual against the two-sided form it replaced: [E_n, F_m}
        # from both orders with the Koszul sign, minus the psi side
        ctx = _level_ctx(level)
        T = ctx.table
        inv = T.qdiff_inv()
        leaks = 0
        for params, pieces in _instance_pieces(ctx, check_eq10, 1):
            i, j, n, m = params["i"], params["j"], params["n"], params["m"]
            e, f = f"E{i}", f"F{j}"
            sign = graded_bracket_sign(CURRENT_PARITY[e], CURRENT_PARITY[f])
            for s in enumerate_basis(1):
                lhs = vec_sub(ctx.product_vec((e, f), (n, m), s),
                              vec_scale(ctx.product_vec((f, e), (m, n), s), sign))
                rhs = {}
                if i == j:
                    one = {s: T.one()}
                    rhs = vec_sub(
                        vec_scale(ctx.mode_vec(f"psi{i}+", n + m, one),
                                  ctx.gamma_pow(Fraction(n - m, 2)) * inv),
                        vec_scale(ctx.mode_vec(f"psi{i}-", n + m, one),
                                  ctx.gamma_pow(Fraction(m - n, 2)) * inv))
                got = ctx.combo_vec(pieces, s)
                assert got == vec_sub(lhs, rhs), (params, format_state(s))
                leaks += bool(got)
        assert (leaks > 0) == (level == "k2_f13")


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
