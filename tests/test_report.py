"""Report serialization and the numeric cross-check oracle."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl import finite_symbols, report
from uqsl.report import (
    ORACLE_PAIRS,
    RelationResult,
    SuiteReport,
    compare_cases,
    numeric_assignments,
    numeric_check,
    relation_id,
    run_instances,
)
from uqsl.ring import RingElem, SymbolTable


def sample_report():
    rep = SuiteReport("finite", {"M": 2, "N": 1, "D": 2}, seed=7)
    rep.add(RelationResult("z.last", "pass", 3, {"i": 1}))
    rep.add(RelationResult(
        "a.first", "fail", 1, {"i": 2},
        witness={"element": "x12", "lhs": "q", "rhs": "0"},
    ))
    rep.add(RelationResult("m.middle", "not-applicable", 0, {}))
    return rep


class TestRelationResult:
    def test_optional_fields_omitted(self):
        d = RelationResult("r", "pass", 2, {"n": 1}).to_json()
        assert "witness" not in d and "numeric" not in d

    def test_optional_fields_present(self):
        d = RelationResult(
            "r", "fail", 2, {}, witness={"at": "x"}, numeric={"status": "pass"}
        ).to_json()
        assert d["witness"] == {"at": "x"}
        assert d["numeric"] == {"status": "pass"}


class TestSuiteReport:
    def test_summary(self):
        assert sample_report().summary() == {
            "total": 3, "pass": 1, "fail": 1, "not-applicable": 1,
        }

    def test_failed_flag(self):
        rep = SuiteReport("finite", {}, 0)
        assert not rep.failed
        rep.add(RelationResult("r", "fail"))
        assert rep.failed

    def test_relations_sorted_by_id(self):
        ids = [r["id"] for r in sample_report().to_json()["relations"]]
        assert ids == sorted(ids)

    def test_write_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        sample_report().write(str(a))
        sample_report().write(str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_write_parses_and_sorts_keys(self, tmp_path):
        p = tmp_path / "r.json"
        sample_report().write(str(p))
        data = json.loads(p.read_text(encoding="utf-8"))
        assert data["tool"] == "uqsl"
        assert list(data) == sorted(data)
        assert "timings" not in data

    def test_timings_opt_in(self):
        rep = sample_report()
        rep.timings = {"total": 1.5}
        assert rep.to_json()["timings"] == {"total": 1.5}


class TestNumericAssignments:
    def test_deterministic(self):
        T = finite_symbols(2)
        assert numeric_assignments(3, "r.x", T) == numeric_assignments(3, "r.x", T)

    def test_seed_sensitivity(self):
        T = finite_symbols(2)
        assert numeric_assignments(3, "r.x", T) != numeric_assignments(4, "r.x", T)

    def test_relation_sensitivity(self):
        T = finite_symbols(2)
        assert numeric_assignments(3, "r.x", T) != numeric_assignments(3, "r.y", T)

    def test_values_safe(self):
        T = finite_symbols(3)
        for vals in numeric_assignments(0, "r", T, count=5):
            assert set(vals) == set(T.symbols)
            for v in vals.values():
                assert v not in (0, 1, -1)


class TestNumericCheck:
    def test_empty(self):
        out = numeric_check(0, "r", [])
        assert out == {"assignments": 3, "pairs": 0, "status": "pass"}

    def test_equal_pairs_pass(self):
        T = finite_symbols(2)
        pairs = [(T.qint(2), T.qint(2)), (T.one() + T.qint(3), T.qint(3) + T.one())]
        assert numeric_check(0, "r", pairs)["status"] == "pass"

    def test_unequal_pairs_fail(self):
        T = finite_symbols(2)
        out = numeric_check(0, "r", [(T.qint(2), T.qint(3))])
        assert out["status"] == "fail"

    def test_cap(self):
        T = finite_symbols(2)
        pairs = [(T.one(), T.one())] * 80
        assert numeric_check(0, "r", pairs)["pairs"] == 64

    def test_reads_each_assignment_once(self, monkeypatch):
        T = finite_symbols(2)
        reads = []
        evals = []
        real_read = SymbolTable.numeric_point
        real_eval = RingElem.subst_numeric

        def read(self, assignment):
            reads.append(assignment)
            return real_read(self, assignment)

        def evaluate(self, assignment):
            evals.append(assignment)
            return real_eval(self, assignment)

        monkeypatch.setattr(SymbolTable, "numeric_point", read)
        monkeypatch.setattr(RingElem, "subst_numeric", evaluate)
        # equal in value, stored with different dpow: both are evaluated
        pairs = [(x, padded(x)) for x in (T.qint(2), T.qint(3))]
        assert numeric_check(0, "r", pairs)["status"] == "pass"
        assert reads == numeric_assignments(0, "r", T)
        assert len(evals) == 3 * 2 * 2

    def test_dpow_only_difference_fails(self):
        T = finite_symbols(2)
        x = T.qint(2)
        pairs = [(x, RingElem(T, dict(x.terms), x.dpow + 1, x.den))]
        assert numeric_check(0, "r", pairs)["status"] == "fail"

    def test_den_only_difference_fails(self):
        T = finite_symbols(2)
        x = T.qint(2)
        pairs = [(x, RingElem(T, dict(x.terms), x.dpow, 3))]
        assert numeric_check(0, "r", pairs)["status"] == "fail"

    def test_unequal_pair_after_a_differing_equal_one_fails(self):
        T = finite_symbols(2)
        x = T.qint(2)
        pairs = [(x, padded(x)), (T.qint(2), T.qint(3))]
        assert numeric_check(0, "r", pairs)["status"] == "fail"

    def test_identically_stored_pairs_derive_no_point(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was derived for identical sides")

        monkeypatch.setattr(SymbolTable, "numeric_point", refuse)
        monkeypatch.setattr(report, "numeric_assignments", refuse)
        T = finite_symbols(2)
        x = T.qint(3) * Fraction(1, 5) * T.qdiff_inv()
        pairs = [(T.qint(2), T.qint(2)), (x, x),
                 (x, RingElem(T, dict(x.terms), x.dpow, x.den)), (T.zero(), T.zero())]
        assert numeric_check(0, "r", pairs) == {"assignments": 3, "pairs": 4,
                                                 "status": "pass"}


def padded(x):
    """x stored with one more (q - q^-1) in numerator and denominator."""
    T = x.table
    return x * T.qdiff() * T.qdiff_inv()


def reference_numeric_check(seed, rel_id, pairs, count=3):
    """numeric_check as it was before it skipped identically stored pairs:
    every capped pair is evaluated at every point."""
    pairs = pairs[:ORACLE_PAIRS]
    if not pairs:
        return {"assignments": count, "pairs": 0, "status": "pass"}
    table = pairs[0][0].table
    for vals in numeric_assignments(seed, rel_id, table, count):
        point = table.numeric_point(vals)
        for lhs, rhs in pairs:
            if lhs.subst_numeric(point) != rhs.subst_numeric(point):
                return {"assignments": count, "pairs": len(pairs), "status": "fail"}
    return {"assignments": count, "pairs": len(pairs), "status": "pass"}


ORACLE_TABLE = finite_symbols(2)
small_exps = st.integers(-3, 3)


@st.composite
def oracle_elements(draw):
    T = ORACLE_TABLE
    el = T.zero()
    for _ in range(draw(st.integers(0, 3))):
        e = {"q": draw(small_exps), "L1": draw(small_exps), "L2": draw(small_exps)}
        el = el + T.monomial(e, draw(st.fractions(-4, 4, max_denominator=3)))
    return el * T.qdiff_inv(draw(st.integers(0, 2)))


@st.composite
def oracle_pairs(draw):
    """A pair stored identically, equal but stored differently, unequal
    (also with equal terms and another dpow or den), or with a zero side."""
    T = ORACLE_TABLE
    x = draw(oracle_elements())
    kind = draw(st.sampled_from(["same", "copy", "padded", "dpow", "den", "other", "zero"]))
    if kind == "same":
        return x, x
    if kind == "copy":
        return x, RingElem(T, dict(x.terms), x.dpow, x.den)
    if kind == "dpow":
        return x, RingElem(T, dict(x.terms), x.dpow + 1, x.den)
    if kind == "den":
        return x, RingElem(T, dict(x.terms), x.dpow, 2 * x.den)
    if kind == "padded":
        return tuple(draw(st.permutations([x, padded(x)])))
    if kind == "other":
        return x, draw(oracle_elements())
    return tuple(draw(st.permutations([x, T.zero()])))


class TestNumericCheckFilter:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.lists(oracle_pairs(), max_size=ORACLE_PAIRS + 6))
    def test_matches_reference(self, seed, pairs):
        rel_id = f"r.{len(pairs)}"
        assert numeric_check(seed, rel_id, pairs) == reference_numeric_check(seed, rel_id, pairs)


class TestCompareCases:
    T = finite_symbols(2)

    def compare(self, cases, key=None):
        return compare_cases(0, "r", {"n": 1}, cases, self.T.zero(), key, str)

    def test_witness_first_in_key_order(self):
        T = self.T
        # outputs 1 and 3 both differ; descending order visits 3 first
        lhs = {1: T.qint(2), 2: T.one(), 3: T.qint(3)}
        rhs = {2: T.one()}
        res = self.compare([("a", lhs, rhs)], key=lambda out: -out)
        assert res.status == "fail"
        assert res.witness == {"element": "a", "at": "3", "lhs": str(T.qint(3)),
                               "rhs": "0"}
        res = self.compare([("a", lhs, rhs)], key=lambda out: out)
        assert res.witness["at"] == "1"

    def test_witness_from_first_failing_case(self):
        T = self.T
        cases = [("ok", {0: T.one()}, {0: T.one()}),
                 ("bad", {0: T.one()}, {}),
                 ("worse", {}, {5: T.one()})]
        res = self.compare(cases)
        assert res.witness["element"] == "bad"
        assert res.numeric is None

    def test_no_oracle_with_witness(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle ran despite a witness")

        monkeypatch.setattr(report, "numeric_check", refuse)
        res = self.compare([("bad", {0: self.T.one()}, {})])
        assert res.status == "fail"

    def test_oracle_gets_at_most_64_pairs(self, monkeypatch):
        seen = []

        def spy(seed, rel_id, pairs):
            seen.append(len(pairs))
            return numeric_check(seed, rel_id, pairs)

        monkeypatch.setattr(report, "numeric_check", spy)
        T = self.T
        vec = {out: T.qint(out + 1) for out in range(30)}
        res = self.compare([(f"c{i}", vec, dict(vec)) for i in range(3)])
        assert seen == [64]
        assert res.status == "pass" and res.numeric["pairs"] == 64

    def test_checked_counts_cases(self):
        T = self.T
        cases = [("empty", {}, {})] * 4 + [("one", {0: T.one()}, {0: T.one()})]
        res = self.compare(cases)
        assert res.checked == 5
        assert res.status == "pass" and res.numeric["pairs"] == 1

    def test_oracle_failure_fails_relation(self, monkeypatch):
        monkeypatch.setattr(report, "numeric_check",
                            lambda seed, rel_id, pairs: {"status": "fail"})
        res = self.compare([("a", {0: self.T.one()}, {0: self.T.one()})])
        assert res.status == "fail" and res.witness is None

    def test_no_case_is_not_applicable(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle ran without a case")

        monkeypatch.setattr(report, "numeric_check", refuse)
        res = self.compare([])
        assert res.status == "not-applicable" and res.checked == 0
        assert res.witness == {"reason": "no case inside the bounded subspace"}
        assert res.numeric is None


class TestRunInstances:
    T = finite_symbols(2)

    def test_relation_id_reads_declared_keys_in_order(self):
        params = {"m": 0, "window": 2, "i": 1, "sign": "plus", "n": -1}
        keys = ("i", "j", "sign", "n", "m")
        assert relation_id("fam.eq9", keys, params) == "fam.eq9.i=1.sign=plus.n=-1.m=0"
        assert relation_id("fam.eq14", (), params) == "fam.eq14"

    def test_instances_in_order_with_their_ids_and_seed(self, monkeypatch):
        seen = []

        def spy(seed, rel_id, pairs):
            seen.append((seed, rel_id))
            return numeric_check(seed, rel_id, pairs)

        monkeypatch.setattr(report, "numeric_check", spy)
        one = self.T.one()
        instances = [({"n": n, "D": 2}, [("c", {0: one}, {0: one})]) for n in (2, 1)]
        instances.append(({"n": 3}, "needs a node 4"))
        res = run_instances(5, "fam", ("n",), instances, self.T.zero(), None, str)
        assert [r.id for r in res] == ["fam.n=2", "fam.n=1", "fam.n=3"]
        assert [r.status for r in res] == ["pass", "pass", "not-applicable"]
        assert res[0].params == {"n": 2, "D": 2}
        # a reason in place of cases reaches no comparison and no oracle
        assert seen == [(5, "fam.n=2"), (5, "fam.n=1")]
        assert res[2] == RelationResult("fam.n=3", "not-applicable", 0, {"n": 3},
                                        {"reason": "needs a node 4"})
