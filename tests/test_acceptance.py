"""The ten acceptance gates.

Each test is one criterion; the heavy suites run once in session fixtures
and are shared by the criteria that inspect them.  The four criteria that
use the heavy affine_suite are marked slow, so `pytest -m "not slow"` skips
that run.  Budgets are wall-clock bounds from the build contract, asserted
where the contract sets one.
"""

import time

import pytest

from uqsl import affine_symbols, verify_bracket_identity
from uqsl.affine import AffineContext, run_affine
from uqsl.cli import main
from uqsl.finite import (
    SABOTAGE_IDS,
    check_chevalley,
    check_intermediate,
    check_remarks,
)

CHEVALLEY_SHAPES = ((2, 1, 4), (1, 2, 4), (2, 2, 3), (3, 1, 3), (1, 3, 3))


def fails_of(results):
    return [r.id for r in results if r.status == "fail"]


@pytest.fixture(scope="session")
def chevalley_suite():
    t0 = time.monotonic()
    out = {}
    for M, N, D in CHEVALLEY_SHAPES:
        for variant in ("i", "ii"):
            out[(M, N, variant)] = check_chevalley(M, N, variant, D)
    return out, time.monotonic() - t0


@pytest.fixture(scope="session")
def intermediate_suite():
    return {
        (2, 1): check_intermediate(2, 1, 3),
        (2, 2): check_intermediate(2, 2, 3),
    }


@pytest.fixture(scope="session")
def remarks_suite():
    return {
        (2, 1): check_remarks(2, 1, 4),
        (3, 1): check_remarks(3, 1, 4),
    }


@pytest.fixture(scope="session")
def affine_suite():
    t0 = time.monotonic()
    res = run_affine(E_cut=2, window=2, k=None, radius=0, norm="l1",
                     psi_nmax=4, seed=0)
    return res, time.monotonic() - t0


def test_criterion_01_simple_root_relations(chevalley_suite):
    suites, dt = chevalley_suite
    total = 0
    for (M, N, variant), res in suites.items():
        assert fails_of(res) == [], f"({M},{N}) variant {variant}"
        # only the cubic Serre relation may lack instances, at rank 2
        for r in res:
            if r.status == "not-applicable":
                assert r.id.startswith("chevalley.eq5")
        total += len(res)
    assert dt < 300
    print(f"[criterion 1] PASS: {total} relations over "
          f"{len(suites)} suites in {dt:.1f}s")


def test_criterion_02_nonsuper_regression():
    total = 0
    for M in (2, 3):
        for variant in ("i", "ii"):
            res = check_chevalley(M, 0, variant, 4)
            assert fails_of(res) == [], f"({M},0) variant {variant}"
            total += len(res)
            if M == 3:
                # the rank-2 Serre relation must actually be exercised
                assert any(r.id.startswith("chevalley.eq4") for r in res)
    print(f"[criterion 2] PASS: {total} relations at (2,0) and (3,0)")


def test_criterion_03_intermediate_commutators(intermediate_suite):
    for shape, res in intermediate_suite.items():
        assert fails_of(res) == [], shape
        eqs = {r.id.split(".")[1] for r in res}
        assert eqs == {"eq28", "eq29", "eq30", "eq31", "eq33"}
        variants = {
            (r.params["eps"], r.params["epsp"])
            for r in res if ".eq33." in r.id
        }
        assert len(variants) == 4
    n = sum(len(r) for r in intermediate_suite.values())
    print(f"[criterion 3] PASS: {n} intermediate relations at (2,1) and (2,2)")


def test_criterion_04_bracket_identity():
    for n in range(1, 5):
        assert verify_bracket_identity(n), f"n={n}"
    print("[criterion 4] PASS: exponent-splitting identity for n=1..4")


def test_criterion_05_remarks(remarks_suite):
    for shape, res in remarks_suite.items():
        assert fails_of(res) == [], shape
        kinds = {r.id.split(".")[0] for r in res}
        assert kinds == {"remark1", "remark2"}
    n = sum(len(r) for r in remarks_suite.values())
    print(f"[criterion 5] PASS: {n} remark equalities at (2,1) and (3,1)")


@pytest.mark.slow
def test_criterion_06_affine_relations(affine_suite):
    res, dt = affine_suite
    assert fails_of(res) == []
    counts = {}
    for r in res:
        eq = r.id.split(".")[1]
        counts[eq] = counts.get(eq, 0) + 1
    assert counts == {
        "eq6": 1, "eq7": 12, "eq8": 96, "eq9": 160, "eq10": 100,
        "eq11": 150, "eq12": 30, "eq13": 150, "eq14": 1, "eq15": 36,
    }
    eq14 = next(r for r in res if r.id == "drinfeld.eq14")
    assert eq14.status == "not-applicable"
    assert dt < 900
    print(f"[criterion 6] PASS: {len(res)} affine relations, "
          f"k formal, in {dt:.1f}s")


@pytest.mark.slow
def test_criterion_07_psi_consistency(affine_suite):
    res, _ = affine_suite
    psi = [r for r in res if r.id.startswith("psi.eq15.")]
    assert len(psi) == 36  # i, sign, |n| <= 4
    assert fails_of(psi) == []
    # both routes were actually compared on the full energy-2 basis
    assert all(r.checked == 34 for r in psi)
    print("[criterion 7] PASS: psi modes match their H/K expansions, |n| <= 4")


@pytest.mark.slow
def test_criterion_08_heisenberg_closure(affine_suite):
    res, _ = affine_suite
    eq8 = [r for r in res if r.id.startswith("drinfeld.eq8.")]
    assert fails_of(eq8) == []
    spans = {abs(r.params["n"]) for r in eq8}
    assert spans == {1, 2, 3, 4, 5, 6}
    ctx = AffineContext()
    for i in (1, 2):
        for j in (1, 2):
            for n in range(1, 7):
                for s in (n, -n):
                    assert ctx.h_scalar(i, j, s) == ctx.eq8_rhs_scalar(i, j, s)
    assert ctx.h_scalar(2, 2, 1).is_zero()
    print("[criterion 8] PASS: Cartan mode brackets close for 1 <= |n| <= 6")


def test_criterion_09_negative_controls(tmp_path):
    for sab in SABOTAGE_IDS:
        res = check_chevalley(2, 1, "i", 2, sabotage=sab)
        bad = [r for r in res if r.status == "fail"]
        assert bad, f"sabotage {sab} went undetected"
        assert all(r.witness is not None for r in bad)

    T = affine_symbols()
    for name in ("f11", "f12", "f13", "f21", "f22", "f23", "f24"):
        res = run_affine(E_cut=0, window=1, psi_nmax=1,
                         f_overrides={name: T.one()})
        bad = [r for r in res if r.status == "fail"]
        assert bad, f"override {name}=1 went undetected"
        assert all(r.witness is not None for r in bad)

    assert main(["check-finite", "--M", "2", "--N", "1", "--max-degree", "2",
                 "--sabotage", "f2",
                 "--report", str(tmp_path / "f.json")]) == 1
    assert main(["check-affine", "--energy-cut", "0", "--mode-window", "1",
                 "--psi-nmax", "1", "--override", "f13=1",
                 "--report", str(tmp_path / "a.json")]) == 1
    print("[criterion 9] PASS: every single-atom and single-constant "
          "corruption fails with a witness and exit code 1")


@pytest.mark.slow
def test_criterion_10_numeric_oracle(chevalley_suite, intermediate_suite,
                                     remarks_suite, affine_suite):
    everything = []
    for res in chevalley_suite[0].values():
        everything += res
    for res in intermediate_suite.values():
        everything += res
    for res in remarks_suite.values():
        everything += res
    everything += affine_suite[0]
    passing = [r for r in everything if r.status == "pass"]
    assert passing
    for r in passing:
        assert r.numeric is not None, r.id
        assert r.numeric["status"] == "pass", r.id
        assert r.numeric["assignments"] == 3, r.id
    assert any(r.numeric["pairs"] > 0 for r in passing)
    print(f"[criterion 10] PASS: {len(passing)} passing relations each "
          "verified at 3 seeded rational points")
