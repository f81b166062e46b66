"""q-difference realization: worked values, relation suites, controls."""

import json
from fractions import Fraction

import pytest

from uqsl import LinForm, finite_symbols
from uqsl.cli import main
from uqsl.finite import (
    SABOTAGE_IDS,
    Atom,
    FiniteRealization,
    _intermediate_rhs29,
    _intermediate_rhs30,
    _intermediate_rhs31,
    check_chevalley,
    check_intermediate,
    check_remarks,
    compose,
    graded_commutator,
    sabotage_changes_nothing,
    scale_map,
)
from uqsl.grassmann import SuperPoly

from readme_ids import readme_rows, unmatched


@pytest.fixture
def real21():
    return FiniteRealization(2, 1)


def mono(real, text):
    m = real.space.parse_monomial(text)
    return SuperPoly(real.space, {m: real.table.one()})


def coeff(real, poly, text):
    return poly.terms[real.space.parse_monomial(text)]


class TestWorkedValues:
    def test_t1_on_unit(self, real21):
        out = real21.build_t(1).apply(mono(real21, "1"))
        assert coeff(real21, out, "1") == real21.table.monomial({"L1": 1})

    def test_h1_on_x12(self, real21):
        # eigenvalue lambda_1 - 2
        out = real21.build_t(1).apply(mono(real21, "x12"))
        want = real21.table.qpow(LinForm(-2, {"l1": 1}))
        assert coeff(real21, out, "x12") == want

    def test_h2_on_x13(self, real21):
        # eigenvalue lambda_2 + 1
        out = real21.build_t(2).apply(mono(real21, "x13"))
        want = real21.table.qpow(LinForm(1, {"l2": 1}))
        assert coeff(real21, out, "x13") == want

    def test_e1_on_x12(self, real21):
        out = real21.build_e(1, "i").apply(mono(real21, "x12"))
        assert coeff(real21, out, "1") == 1
        assert len(out.terms) == 1

    def test_f1_on_unit(self, real21):
        out = real21.build_f(1, "i").apply(mono(real21, "1"))
        want = real21.table.qbracket(LinForm.sym("l1"))
        assert coeff(real21, out, "x12") == want
        assert len(out.terms) == 1

    def test_e2_on_unit(self, real21):
        assert real21.build_e(2, "i").apply(mono(real21, "1")).is_zero()

    def test_e1_f1_on_unit(self, real21):
        e1 = real21.build_e(1, "i")
        f1 = real21.build_f(1, "i")
        out = e1.apply(f1.apply(mono(real21, "1")))
        assert coeff(real21, out, "1") == real21.table.qbracket(LinForm.sym("l1"))

    def test_conjugation_scalar(self, real21):
        # t1 e1 t1^-1 = q^2 e1 (a_11 = 2), checked on x12^2
        p = mono(real21, "x12^2")
        e1 = real21.build_e(1, "i")
        lhs = compose(real21.build_t(1), compose(e1, real21.build_t(1, -1))).apply(p)
        rhs = e1.apply(p).scale(real21.table.qpow(LinForm(2)))
        assert (lhs - rhs).is_zero()

    def test_bracket_reduces_even(self, real21):
        # [e1, e1]_q = (1 - q) e1^2 since e1 is even
        e1 = real21.build_e(1, "i")
        p = mono(real21, "x12^2")
        lhs = graded_commutator(e1, e1, real21.table.qpow(LinForm(1))).apply(p)
        rhs = e1.apply(e1.apply(p)).scale(
            real21.table.one() - real21.table.qpow(LinForm(1)))
        assert (lhs - rhs).is_zero()

    def test_bracket_reduces_odd(self, real21):
        # [e2, e2] = 2 e2^2 since e2 is odd
        e2 = real21.build_e(2, "i")
        assert e2.parity == 1
        p = mono(real21, "x13*x23")
        lhs = graded_commutator(e2, e2).apply(p)
        rhs = e2.apply(e2.apply(p)).scale(2)
        assert (lhs - rhs).is_zero()

    def test_parities(self, real21):
        assert real21.build_e(1, "i").parity == 0
        assert real21.build_f(2, "ii").parity == 1
        assert real21.build_t(2).parity == 0


def _statuses(reports):
    return {r.id: r.status for r in reports}


def _assert_all_pass(reports):
    bad = [r for r in reports if r.status == "fail"]
    assert not bad, f"failing: {[(r.id, r.witness) for r in bad[:3]]}"


class TestChevalleySuites:
    @pytest.mark.parametrize("variant", ["i", "ii"])
    def test_21(self, variant):
        reports = check_chevalley(2, 1, variant, 3)
        _assert_all_pass(reports)
        st = _statuses(reports)
        assert st[f"chevalley.eq3.i=1.j=2.variant={variant}"] == "pass"
        # no node M+1 for (2,1): quartic relation is out of range
        assert st[f"chevalley.eq5.sign=plus.variant={variant}"] == "not-applicable"

    def test_12(self):
        _assert_all_pass(check_chevalley(1, 2, "ii", 3))

    def test_20_nonsuper(self):
        reports = check_chevalley(2, 0, "i", 4)
        _assert_all_pass(reports)
        # rank 1: no Serre instances at all
        assert not any(r.id.startswith("chevalley.eq4") for r in reports)

    def test_30_nonsuper(self):
        _assert_all_pass(check_chevalley(3, 0, "i", 2))

    def test_22_with_quartic(self):
        reports = check_chevalley(2, 2, "i", 2)
        _assert_all_pass(reports)
        st = _statuses(reports)
        assert st["chevalley.eq5.sign=plus.variant=i"] == "pass"
        assert st["chevalley.eq5.sign=minus.variant=i"] == "pass"

    def test_31(self):
        _assert_all_pass(check_chevalley(3, 1, "ii", 2))


class TestSabotage:
    @pytest.mark.parametrize("sab", [s for s in SABOTAGE_IDS if s != "e_iip"])
    def test_each_breaks_something(self, sab):
        reports = check_chevalley(2, 1, "i", 2, sabotage=sab)
        fails = [r for r in reports if r.status == "fail"]
        assert fails, f"sabotage {sab} went undetected"
        assert all(r.witness is not None for r in fails)

    def test_e_iip_breaks(self):
        # e_{i,i'} atoms need i >= 2 and a monomial feeding them
        reports = check_chevalley(2, 1, "i", 2, sabotage="e_iip")
        assert any(r.status == "fail" for r in reports)

    def test_h_spares_conjugation(self):
        # shifting h_i leaves Eq. (2) invariant but breaks Eq. (3)
        reports = check_chevalley(2, 1, "i", 2, sabotage="h")
        st = _statuses(reports)
        assert st["chevalley.eq2.i=1.j=1.sign=plus.variant=i"] == "pass"
        assert st["chevalley.eq3.i=1.j=1.variant=i"] == "fail"

    def test_witness_fields(self):
        reports = check_chevalley(2, 1, "i", 2, sabotage="f2-theta")
        bad = next(r for r in reports if r.status == "fail")
        assert set(bad.witness) == {"element", "at", "lhs", "rhs"}

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            FiniteRealization(2, 1, sabotage="nope")

    def test_changes_nothing(self):
        # (1|1) has one node: no f1, e_iip or f3 atoms, and x12 is odd, so
        # f2 multiplies only monomials with theta_12 = 0
        for sab in ("f1", "e_iip", "f3", "f2-theta"):
            assert sabotage_changes_nothing(1, 1, "i", 2, sab), sab
        assert not sabotage_changes_nothing(1, 1, "ii", 2, "h")
        assert not sabotage_changes_nothing(2, 1, "i", 2, "f2-theta")
        # on degree 0 alone f1's lowering meets no x_12 to act on
        assert sabotage_changes_nothing(3, 0, "i", 0, "f1")
        assert not sabotage_changes_nothing(3, 0, "i", 1, "f1")


class TestIntermediate:
    def test_21(self):
        reports = check_intermediate(2, 1, 3)
        _assert_all_pass(reports)
        st = _statuses(reports)
        assert st["intermediate.eq28.kind=e_ii-f1.i=1.j=2.jp=1"] == "pass"
        assert st["intermediate.eq29.i=1.j=1"] == "pass"
        assert st["intermediate.eq33.i=1.j=1.eps=nu_i.epsp=nu_j+1"] == "pass"

    def test_22(self):
        reports = check_intermediate(2, 2, 2)
        _assert_all_pass(reports)
        # four sign choices per (i,j)
        e33 = [r for r in reports if r.id.startswith("intermediate.eq33.i=2.j=2")]
        assert len(e33) == 4

    def test_sabotage_breaks_eq29(self):
        reports = check_intermediate(2, 1, 2, sabotage="f2")
        assert any(
            r.status == "fail" and r.id.startswith("intermediate.eq29")
            for r in reports
        )


class TestRemarks:
    def test_21(self):
        _assert_all_pass(check_remarks(2, 1, 3))

    def test_31(self):
        _assert_all_pass(check_remarks(3, 1, 2))

    def test_f2_half_equal_pointwise(self, real21):
        # the two bracket forms agree even where theta_{j,j+1} is nonzero
        j = 2
        a = real21._op([real21.atom_f2(j)])
        b = real21._op([real21.atom_f2_half(j)])
        p = mono(real21, "x23")
        assert (a.apply(p) - b.apply(p)).is_zero()


class TestReports:
    def test_numeric_attached_on_pass(self):
        reports = check_chevalley(2, 1, "i", 2)
        passed = [r for r in reports if r.status == "pass"]
        assert passed
        for r in passed:
            assert r.numeric is not None
            assert r.numeric["status"] == "pass"
            assert r.numeric["assignments"] == 3

    def test_checked_counts_basis(self):
        reports = check_chevalley(2, 1, "i", 2)
        # degree <= 2 over 3 variables (two odd): 1 + 3 + 4 = 8 monomials
        assert all(r.checked == 8 for r in reports if r.status == "pass")

    def test_ids_match_readme(self, tmp_path):
        """Each check-finite id has the fields of one row of the README's
        finite tables, each row is met by some id, and no report repeats an
        id: (2|2) in both variants and (2|1) reach every row."""
        rows = readme_rows("chevalley|intermediate|remark1|remark2|bracket")
        seen = []
        for M, N, variant in (("2", "2", "i"), ("2", "2", "ii"), ("2", "1", "i")):
            path = tmp_path / f"{M}{N}{variant}.json"
            assert main(["check-finite", "--M", M, "--N", N, "--variant", variant,
                         "--max-degree", "1", "--report", str(path)]) == 0
            ids = [r["id"] for r in json.loads(path.read_text(encoding="utf-8"))["relations"]]
            assert len(set(ids)) == len(ids)
            assert unmatched(rows, ids)[0] == []
            seen += ids
        assert unmatched(rows, seen)[1] == []


# -- the weight sums against their former statement ---------------------------
#
# Before RootData.weight, finite.py wrote each theta sum out by hand: a
# callback sum over one index, head and tail sums built on it, and inline
# copies in atom_f1 and the right-hand sides of eqs. (29)-(31).  They are kept
# here as the reference every W_i restriction must reproduce exactly.

SHAPES = [(M, N) for M in (1, 2, 3) for N in (0, 1, 2, 3) if M + N >= 2]


class OldForms:
    def __init__(self, real):
        self.nu = real.root.nu
        self.total = real.root.total
        self.sabotage = real.sabotage

    def theta_sum(self, lo, hi, pair_of):
        """Sum over ell in [lo, hi] of c1*theta(p1) + c2*theta(p2)."""
        total = LinForm(0)
        for ell in range(lo, hi + 1):
            for coeff, pair in pair_of(ell):
                total = total + LinForm.theta(pair, coeff)
        return total

    def head_sum(self, i, upto):
        """Sum_{ell=1}^{upto} (nu_{i+1} theta_{ell,i+1} - nu_i theta_{ell,i})."""
        nu = self.nu
        return self.theta_sum(
            1, upto, lambda ell: ((nu(i + 1), (ell, i + 1)), (-nu(i), (ell, i))))

    def tail_sum(self, j, start):
        """Sum_{m=start}^{M+N} (nu_j theta_{j,m} - nu_{j+1} theta_{j+1,m})."""
        nu = self.nu
        return self.theta_sum(
            start, self.total, lambda m: ((nu(j), (j, m)), (-nu(j + 1), (j + 1, m))))

    def sab(self, atom, kind):
        if self.sabotage == kind:
            return Atom(atom.shift + 1, atom.brackets, atom.lowers, atom.mult, atom.coeff)
        return atom

    def h_form(self, i):
        nu = self.nu
        form = (
            -self.head_sum(i, i - 1)
            + LinForm.sym(f"l{i}")
            - LinForm.theta((i, i + 1), nu(i) + nu(i + 1))
            - self.tail_sum(i, i + 2)
        )
        return form + 1 if self.sabotage == "h" else form

    def atom_e_ii(self, i):
        return self.sab(Atom(shift=-self.head_sum(i, i - 1), lowers=((i, i + 1),)), "e_ii")

    def atom_e_iip(self, i, ip):
        return self.sab(Atom(shift=-self.head_sum(i, ip - 1), lowers=((ip, i + 1),),
                             mult=((ip, i),)), "e_iip")

    def atom_f1(self, j, jp):
        nu = self.nu
        shift = (
            self.theta_sum(jp + 1, j - 1,
                           lambda m: ((nu(j + 1), (m, j + 1)), (-nu(j), (m, j))))
            - LinForm.sym(f"l{j}")
            + LinForm.theta((j, j + 1), nu(j) + nu(j + 1))
            + self.tail_sum(j, j + 2)
        )
        return self.sab(Atom(shift=shift, lowers=((jp, j),), mult=((jp, j + 1),)), "f1")

    def atom_f2(self, j):
        bracket = (LinForm.sym(f"l{j}") - LinForm.theta((j, j + 1), self.nu(j))
                   - self.tail_sum(j, j + 2))
        return self.sab(Atom(brackets=(bracket,), mult=((j, j + 1),)), "f2")

    def atom_f2_half(self, j):
        nu = self.nu
        bracket = (LinForm.sym(f"l{j}")
                   - LinForm.theta((j, j + 1), Fraction(nu(j) + nu(j + 1), 2))
                   - self.tail_sum(j, j + 2))
        return Atom(brackets=(bracket,), mult=((j, j + 1),))

    def atom_f3(self, j, jp):
        shift = LinForm.sym(f"l{j}") - self.tail_sum(j, jp)
        return self.sab(Atom(shift=shift, lowers=((j + 1, jp),), mult=((j, jp),)), "f3")

    def rhs29(self, i, j):
        nu = self.nu
        atoms = []
        if i == j:
            atoms.append(Atom(
                shift=-self.head_sum(i, i - 1),
                brackets=(LinForm.sym(f"l{i}")
                          - LinForm.theta((i, i + 1), nu(i) + nu(i + 1))
                          - self.tail_sum(i, i + 2),),
            ))
        if i == j + 1:
            shift = (
                -self.head_sum(i, i - 1)
                + LinForm.sym(f"l{i-1}")
                - LinForm.theta((i - 1, i), nu(i - 1))
                - self.theta_sum(i + 1, self.total,
                                 lambda m: ((nu(i - 1), (i - 1, m)), (-nu(i), (i, m))))
            )
            atoms.append(Atom(shift=shift, lowers=((i, i + 1),), mult=((i - 1, i),),
                              coeff=nu(i)))
        return atoms

    def rhs30(self, i, ip, j, jp):
        if i != j or ip != jp:
            return []
        nu = self.nu
        shift = (
            -self.head_sum(i, ip - 1)
            + self.theta_sum(ip + 1, i - 1,
                             lambda ell: ((nu(i + 1), (ell, i + 1)), (-nu(i), (ell, i))))
            - LinForm.sym(f"l{i}")
            + LinForm.theta((i, i + 1), nu(i) + nu(i + 1))
            + self.tail_sum(i, i + 2)
        )
        bracket = LinForm.theta((ip, i), nu(i)) - LinForm.theta((ip, i + 1), nu(i + 1))
        return [Atom(shift=shift, brackets=(bracket,), coeff=nu(i))]

    def rhs31(self, i, ip, j, jp):
        nu = self.nu
        atoms = []
        base_shift = (
            -self.theta_sum(1, j - 1,
                            lambda ell: ((nu(i + 1), (ell, i + 1)), (-nu(i), (ell, i))))
            + LinForm.sym(f"l{j}")
            - LinForm.theta((j, i + 1), nu(i + 1))
            - self.theta_sum(i + 1, self.total,
                             lambda m: ((nu(j), (j, m)), (-nu(j + 1), (j + 1, m))))
        )
        if ip == j and jp == i + 1:
            atoms.append(Atom(shift=base_shift, lowers=((j + 1, i + 1),), mult=((j, i),)))
        if ip == j + 1 and jp == i:
            extra = LinForm.theta((j, i), nu(i) - nu(j))
            atoms.append(Atom(shift=base_shift + extra, lowers=((j + 1, i + 1),),
                              mult=((j, i),), coeff=-1))
        return atoms


def _nodes(real):
    """Every (i, i', j, j') check_intermediate builds a bracket for, with
    i' < i and j' < j (f1) or j' >= j + 2 (f3)."""
    rank, total = real.root.rank, real.root.total
    return [(i, ip, j, jp)
            for i in range(1, rank + 1) for ip in range(1, i)
            for j in range(1, rank + 1)
            for jp in [*range(1, j), *range(j + 2, total + 1)]]


@pytest.mark.parametrize("sab", [None, "f1", "h"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{M}|{N}" for M, N in SHAPES])
class TestWeightSums:
    def test_h_form(self, shape, sab):
        real = FiniteRealization(*shape, sab)
        old = OldForms(real)
        for i in range(1, real.root.rank + 1):
            assert real.h_form(i) == old.h_form(i), i

    def test_atoms(self, shape, sab):
        real = FiniteRealization(*shape, sab)
        old = OldForms(real)
        rank, total = real.root.rank, real.root.total
        for i in range(1, rank + 1):
            assert real.atom_e_ii(i) == old.atom_e_ii(i), i
            assert real.atom_f2(i) == old.atom_f2(i), i
            assert real.atom_f2_half(i) == old.atom_f2_half(i), i
            for ip in range(1, i):
                assert real.atom_e_iip(i, ip) == old.atom_e_iip(i, ip), (i, ip)
                assert real.atom_f1(i, ip) == old.atom_f1(i, ip), (i, ip)
            for jp in range(i + 2, total + 1):
                assert real.atom_f3(i, jp) == old.atom_f3(i, jp), (i, jp)

    def test_intermediate_rhs(self, shape, sab):
        real = FiniteRealization(*shape, sab)
        old = OldForms(real)
        rank = real.root.rank
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                assert _intermediate_rhs29(real, i, j) == old.rhs29(i, j), (i, j)
        nodes = _nodes(real)
        for args in nodes:
            assert _intermediate_rhs30(real, *args) == old.rhs30(*args), args
            assert _intermediate_rhs31(real, *args) == old.rhs31(*args), args
        if rank >= 2:
            # eqs. (30) and (31) compared some atoms, not only empty lists
            assert any(old.rhs30(*args) for args in nodes)
            assert any(old.rhs31(*args) for args in nodes)
