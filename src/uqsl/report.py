"""Relation reports and the deterministic numeric cross-check.

Reports serialize to stable JSON: keys sorted, fixed indentation, relations
ordered by id, no timestamps unless timings are explicitly requested, so a
repeated run yields byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional


@dataclass
class RelationResult:
    id: str
    status: str  # "pass" | "fail" | "not-applicable"
    checked: int = 0
    params: dict = field(default_factory=dict)
    witness: Optional[dict] = None
    numeric: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "status": self.status,
            "checked": self.checked,
            "params": self.params,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.numeric is not None:
            out["numeric"] = self.numeric
        return out


@dataclass
class SuiteReport:
    suite: str
    config: dict
    seed: int
    relations: list = field(default_factory=list)
    timings: Optional[dict] = None

    def add(self, rel: RelationResult):
        self.relations.append(rel)

    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "not-applicable": 0}
        for r in self.relations:
            counts[r.status] = counts.get(r.status, 0) + 1
        return {
            "total": len(self.relations),
            "pass": counts["pass"],
            "fail": counts["fail"],
            "not-applicable": counts["not-applicable"],
        }

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.relations)

    def to_json(self) -> dict:
        out = {
            "tool": "uqsl",
            "version": "0.1.0",
            "suite": self.suite,
            "config": self.config,
            "seed": self.seed,
            "relations": [r.to_json() for r in sorted(self.relations, key=lambda r: r.id)],
            "summary": self.summary(),
        }
        if self.timings is not None:
            out["timings"] = self.timings
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True, ensure_ascii=False)
            fh.write("\n")


# the most (lhs, rhs) coefficient pairs one relation sends to the oracle,
# and the points it evaluates them at
ORACLE_PAIRS = 64
ORACLE_ASSIGNMENTS = 3


def numeric_assignments(seed: int, rel_id: str, table,
                        count: int = ORACLE_ASSIGNMENTS) -> list:
    """Deterministic rational test points, one dict per assignment.

    Values are derived from sha256 over (seed, relation id, trial, symbol) and
    kept away from 0 and +-1 so that denominators and inverses stay valid.
    """
    out = []
    for t in range(count):
        vals = {}
        for sym in table.symbols:
            h = hashlib.sha256(f"{seed}:{rel_id}:{t}:{sym}".encode()).digest()
            nume = 2 + h[0] % 7
            deno = 1 + h[1] % 5
            v = Fraction(nume, deno)
            step = 0
            while v in (0, 1, -1):
                step += 1
                v = Fraction(nume + step, deno)
            vals[sym] = v
        out.append(vals)
    return out


def numeric_check(seed: int, rel_id: str, pairs: list) -> dict:
    """Evaluate (lhs, rhs) ring-element pairs at random-looking rational
    points; compare_cases has already compared them exactly, so this is an
    independent guard against a systematically broken equality test.

    Of the first ORACLE_PAIRS pairs, only those whose sides are stored
    differently (terms, dpow or den) are evaluated, at ORACLE_ASSIGNMENTS
    points: identically stored sides are equal at every point.  That test
    is a plain comparison of the stored fields, not ring arithmetic.  A
    relation with no such pair derives no point.  The result counts every
    capped pair either way.
    """
    pairs = pairs[:ORACLE_PAIRS]
    capped = len(pairs)
    differ = [(lhs, rhs) for lhs, rhs in pairs
              if lhs.terms != rhs.terms or lhs.dpow != rhs.dpow or lhs.den != rhs.den]
    if differ:
        table = pairs[0][0].table
        for vals in numeric_assignments(seed, rel_id, table):
            point = table.numeric_point(vals)
            for lhs, rhs in differ:
                if lhs.subst_numeric(point) != rhs.subst_numeric(point):
                    return {"assignments": ORACLE_ASSIGNMENTS, "pairs": capped, "status": "fail"}
    return {"assignments": ORACLE_ASSIGNMENTS, "pairs": capped, "status": "pass"}


def relation_id(prefix: str, keys, params: dict) -> str:
    """The family prefix, then .key=value for each id key present in
    params, in the declared order; every relation id is formed here."""
    return prefix + "".join(f".{k}={params[k]}" for k in keys if k in params)


def run_family(family, opts: dict) -> list:
    """One entry of a suite's FAMILIES, a (check, reads) pair: check called
    with the options named by reads, in that order."""
    check, reads = family
    return check(*(opts[name] for name in reads))


def run_instances(seed: int, prefix: str, keys, instances, zero, key,
                  fmt) -> list:
    """The one loop from a family's instances to results: one RelationResult
    per (params, cases), in their order, through compare_cases.  cases
    given as a string is the reason the instance has no index set:
    not-applicable."""
    out = []
    for params, cases in instances:
        rel_id = relation_id(prefix, keys, params)
        if isinstance(cases, str):
            out.append(RelationResult(rel_id, "not-applicable", 0, params,
                                      {"reason": cases}))
        else:
            out.append(compare_cases(seed, rel_id, params, cases, zero, key, fmt))
    return out


def compare_cases(seed: int, rel_id: str, params: dict, cases, zero, key,
                  fmt) -> RelationResult:
    """Check one relation: compare both sides of every case exactly.

    cases: iterable of (label, lhs, rhs), each side a dict output -> ring
    element.  Outputs are visited in `key` order (their own order if key is
    None); the first nonzero difference is the witness, its output rendered
    by `fmt`.  Without one, the first ORACLE_PAIRS (lhs, rhs) coefficient
    pairs go to the numeric oracle.  A relation with no case at all checked
    nothing and is not-applicable.
    """
    pairs = []
    witness = None
    checked = 0
    for label, lhs, rhs in cases:
        checked += 1
        for out in sorted(set(lhs) | set(rhs), key=key):
            lc = lhs.get(out, zero)
            rc = rhs.get(out, zero)
            if len(pairs) < ORACLE_PAIRS:
                pairs.append((lc, rc))
            if witness is None and not (lc - rc).is_zero():
                witness = {"element": label, "at": fmt(out), "lhs": str(lc), "rhs": str(rc)}
    if not checked:
        return RelationResult(rel_id, "not-applicable", 0, params,
                              {"reason": "no case inside the bounded subspace"})
    if witness is not None:
        return RelationResult(rel_id, "fail", checked, params, witness)
    numeric = numeric_check(seed, rel_id, pairs)
    status = "pass" if numeric["status"] == "pass" else "fail"
    return RelationResult(rel_id, status, checked, params, None, numeric)
