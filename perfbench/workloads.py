"""The benchmark's workloads: what each one runs, and the verdicts it must reach.

Each workload drives the library's public functions the way the single-job
path of ``uqsl check-affine`` / ``uqsl check-finite`` does: build one context,
run the relation families in order, serialize one SuiteReport.  The seed is
the oracle seed; verdicts do not depend on it, report bytes do.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, replace

AFFINE_FAMILIES = ("eq6", "eq7", "eq8", "eq9", "eq10", "eq11", "eq12", "eq13",
                   "eq14", "eq15")
# The families that never enter bulk.py.
EXACT_FAMILIES = ("eq6", "eq7", "eq8", "eq9", "eq10", "eq14", "eq15")
NOT_APPLICABLE = frozenset({"drinfeld.eq14"})

_F13_FAIL_COMMON = (
    "drinfeld.eq10.i=2.j=1.n=-1.m=-1.k=2",
    "drinfeld.eq10.i=2.j=1.n=-1.m=0.k=2",
    "drinfeld.eq10.i=2.j=1.n=0.m=-1.k=2",
    "drinfeld.eq11.i=1.j=2.sign=minus.n=-1.m=-1",
    "drinfeld.eq11.i=1.j=2.sign=minus.n=-1.m=0",
    "drinfeld.eq11.i=1.j=2.sign=minus.n=0.m=-1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=-1.n2=-1.m=-1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=-1.n2=-1.m=0",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=-1.n2=-1.m=1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=-1.n2=0.m=-1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=-1.n2=0.m=0",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=-1.n2=0.m=1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=-1.n2=1.m=-1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=-1.n2=1.m=0",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=0.n2=0.m=-1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=0.n2=1.m=-1",
)
# With f13 = 1 at k = 2, E_cut = 1 adds these failures to the E_cut = 0 ones.
_F13_FAIL_E1 = (
    "drinfeld.eq10.i=2.j=1.n=-1.m=1.k=2",
    "drinfeld.eq10.i=2.j=1.n=0.m=0.k=2",
    "drinfeld.eq10.i=2.j=1.n=1.m=-1.k=2",
    "drinfeld.eq11.i=1.j=2.sign=minus.n=-1.m=1",
    "drinfeld.eq11.i=1.j=2.sign=minus.n=0.m=0",
    "drinfeld.eq11.i=1.j=2.sign=minus.n=1.m=-1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=-1.n2=1.m=1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=0.n2=0.m=0",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=0.n2=0.m=1",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=0.n2=1.m=0",
    "drinfeld.eq13.i=1.j=2.sign=minus.n1=1.n2=1.m=-1",
)


@dataclass(frozen=True)
class Affine:
    E_cut: int
    window: int
    psi_nmax: int
    k: int | None
    families: tuple
    expect_count: int
    overrides: tuple = ()          # ((name, expression), ...)
    expect_fail: frozenset = frozenset()
    kind: str = "affine"


@dataclass(frozen=True)
class Finite:
    M: int
    N: int
    variant: str
    D: int
    bracket_nmax: int
    expect_count: int
    expect_fail: frozenset = frozenset()
    kind: str = "finite"


WORKLOADS = {
    "affine_full_e1w1": Affine(
        E_cut=1, window=1, psi_nmax=2, k=None, families=AFFINE_FAMILIES,
        expect_count=276),
    "affine_exact_e0w2": Affine(
        E_cut=0, window=2, psi_nmax=4, k=None, families=EXACT_FAMILIES,
        expect_count=406),
    "affine_override_k2": Affine(
        E_cut=1, window=1, psi_nmax=2, k=2, families=AFFINE_FAMILIES,
        expect_count=276, overrides=(("f13", "1"),),
        expect_fail=frozenset(_F13_FAIL_COMMON + _F13_FAIL_E1)),
    "finite_m2n2_d4": Finite(M=2, N=2, variant="ii", D=4, bracket_nmax=4,
                             expect_count=142),
}

# The same code paths at the smallest sizes, for the self-test.
TINY = {
    "affine_full_e1w1": replace(WORKLOADS["affine_full_e1w1"], E_cut=0),
    "affine_exact_e0w2": replace(WORKLOADS["affine_exact_e0w2"], window=1,
                                 expect_count=190),
    "affine_override_k2": replace(WORKLOADS["affine_override_k2"], E_cut=0,
                                  expect_fail=frozenset(_F13_FAIL_COMMON)),
    "finite_m2n2_d4": replace(WORKLOADS["finite_m2n2_d4"], D=1),
}


def report_bytes(report) -> bytes:
    """The bytes SuiteReport.write puts in a file."""
    text = json.dumps(report.to_json(), indent=2, sort_keys=True,
                      ensure_ascii=False)
    return (text + "\n").encode("utf-8")


class AffineRun:
    """One cold AffineContext and basis, as check-affine builds them."""

    def __init__(self, spec: Affine, seed: int):
        from uqsl import affine, oscillators, report, ring
        self.spec, self.seed, self.affine = spec, seed, affine
        self.report_cls = report.SuiteReport
        table = ring.affine_symbols(spec.k)
        overrides = {name: table.rational(int(text))
                     for name, text in spec.overrides} or None
        self.ctx = affine.AffineContext(k=spec.k, f_overrides=overrides,
                                        seed=seed)
        self.basis = oscillators.enumerate_basis(spec.E_cut, 0, "l1")

    def verify(self, region=None):
        """All relation results and the serialized report."""
        region = region or (lambda name: nullcontext())
        A, spec, ctx, basis = self.affine, self.spec, self.ctx, self.basis
        results = []
        for eq in spec.families:
            with region(f"affine.{eq}"):
                if eq == "eq6":
                    results += A.check_eq6(ctx, spec.window)
                elif eq == "eq14":
                    results += A.check_eq14(ctx)
                elif eq == "eq15":
                    results += A.check_eq15(ctx, basis, spec.psi_nmax)
                else:
                    results += getattr(A, f"check_{eq}")(ctx, basis, spec.window)
        cfg = A.affine_config(spec.E_cut, spec.window, spec.k, 0, "l1",
                              spec.psi_nmax, dict(spec.overrides))
        with region("report.serialize"):
            data = report_bytes(self.report_cls("affine", cfg, self.seed, results))
        return results, data


class FiniteRun:
    """The flag-space realization and basis, as check-finite builds them."""

    def __init__(self, spec: Finite, seed: int):
        from uqsl import finite, grassmann, report, ring
        self.finite, self.ring = finite, ring
        self.spec, self.seed = spec, seed
        self.report_cls, self.result_cls = report.SuiteReport, report.RelationResult
        self.real = self.finite.FiniteRealization(spec.M, spec.N)
        self.basis = grassmann.basis_upto(self.real.space, spec.D)

    def _bracket_results(self) -> list:
        out = []
        for n in range(1, self.spec.bracket_nmax + 1):
            ok = self.ring.verify_bracket_identity(n)
            out.append(self.result_cls(
                f"bracket.eq32.n={n}", "pass" if ok else "fail", 1, {"n": n},
                None if ok else {"element": "formal exponents",
                                 "reason": "sum of shifted brackets != joint bracket"},
            ))
        return out

    def verify(self, region=None):
        region = region or (lambda name: nullcontext())
        F, s, seed = self.finite, self.spec, self.seed
        results = []
        with region("finite.chevalley"):
            results += F.check_chevalley(s.M, s.N, s.variant, s.D, seed)
        with region("finite.intermediate"):
            results += F.check_intermediate(s.M, s.N, s.D, seed)
        with region("finite.remarks"):
            results += F.check_remarks(s.M, s.N, s.D, seed)
        with region("ring.bracket"):
            results += self._bracket_results()
        cfg = {"M": s.M, "N": s.N, "variant": s.variant, "max_degree": s.D,
               "sabotage": None, "bracket_nmax": s.bracket_nmax}
        with region("report.serialize"):
            data = report_bytes(self.report_cls("finite", cfg, seed, results))
        return results, data


def make_run(spec, seed: int):
    """A cold context for one timed repetition."""
    return (AffineRun if spec.kind == "affine" else FiniteRun)(spec, seed)


def verdict_failures(spec, results) -> list:
    """One line per relation whose status is not the pinned one, or that
    was never produced."""
    bad = []
    for r in results:
        want = ("fail" if r.id in spec.expect_fail
                else "not-applicable" if r.id in NOT_APPLICABLE else "pass")
        if r.status != want:
            bad.append(f"{r.id}: {r.status}, expected {want}")
        elif want == "fail" and not (r.witness and r.witness.get("lhs")
                                     and r.witness.get("rhs")):
            bad.append(f"{r.id}: failed without a witness")
    ids = {r.id for r in results}
    if len(ids) != len(results):
        bad.append("duplicate relation ids")
    lost = sorted(spec.expect_fail - ids)
    bad += [f"{rid}: expected to fail, never produced" for rid in lost]
    short = spec.expect_count - len(ids) - len(lost)
    bad += ["relation never produced"] * max(0, short)
    if len(ids) > spec.expect_count:
        bad.append(f"{len(ids)} relations, pinned {spec.expect_count}")
    return bad
