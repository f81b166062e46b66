"""Bounded verification of the level-k loop-algebra relations.

Every defining relation of the quantum affine superalgebra at rank (2|1) is
checked as an exact operator identity on a finite set of Fock states: mode
indices range over a window, states over an energy/momentum box, and both
sides are expanded into exact ring coefficients.  Nothing is truncated: the
output vectors of every application are computed exactly, so a pass is a
proof of the relation instance on the chosen states and a fail carries a
concrete witness coefficient.

Relation ids follow the workbench numbering: drinfeld.eq6 through eq14 for
the loop relations (eq6 central scalar, eq7 K-conjugation, eq8 Cartan mode
brackets, eq9 Cartan action on E/F, eq10 the EF bracket against the psi
modes, eq11 the q-shifted quadratic exchange, eq12 the vanishing bracket for
the a_ij = 0 pair, eq13 the cubic Serre relation, eq14 the quartic one), and
psi.eq15 for the two routes to the psi modes.  The Cartan zero modes enter
through K only: H^i_0 itself is a logarithm and has no place in a Laurent
ring, so eq8/eq9 run over nonzero Cartan modes while eq7 carries the n = 0
content.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .bulk import BulkEngine, BulkError
from .currents import (
    CURRENT_PARITY,
    VertexEngine,
    default_e_values,
    f_constants,
    h_coeffs,
    make_currents,
)
from .oscillators import (
    VACUUM,
    FockState,
    OscillatorAlgebra,
    add_term,
    apply_oscillator,
    enumerate_basis,
    format_state,
    k_eigenvalue,
    occ_add,
    vec_scale,
    vec_sub,
)
from .report import RelationResult, compare_cases
# Re-exported: perfbench/spans.py swaps affine.numeric_check for a timing
# wrapper and fails if the attribute is missing.
from .report import numeric_check  # noqa: F401
from .ring import LinForm, RingElem, affine_symbols
from .structure import graded_bracket_sign

A_CARTAN = {(1, 1): 2, (1, 2): -1, (2, 1): -1, (2, 2): 0}


class AffineContext:
    """One realization instance: symbol table, currents, fused products."""

    def __init__(self, k=None, f_overrides=None, seed: int = 0):
        self.k = k
        self.seed = seed
        self.table = affine_symbols(k)
        self.alg = OscillatorAlgebra(self.table)
        self.engine = VertexEngine(self.alg)
        self.e_values = default_e_values(self.table)
        self.f_values = f_constants(self.table, self.e_values, f_overrides)
        self.currents = make_currents(self.engine, {**self.e_values, **self.f_values})
        self.bulk = BulkEngine(self.engine)
        self._fused: dict = {}
        # (name, n, state) -> ((state, coeff), ...) for one mode on one
        # state; name is an E/F/psi current or "H<i>" for H^i_n.
        self._app: dict = {}
        self._hc: dict = {}  # (i, n) -> h_coeffs(table, i, n)

    def gamma_pow(self, exponent) -> RingElem:
        """gamma^exponent with gamma = q^k; exponent may be half-integral."""
        return self.table.qpow(LinForm(0, {"k": Fraction(exponent)}))

    def fused_terms(self, names) -> list:
        key = tuple(names)
        lst = self._fused.get(key)
        if lst is None:
            lst = [self.engine.single(t) for t in self.currents[names[0]]]
            for nm in names[1:]:
                lst = [self.engine.fuse(f, t) for f in lst for t in self.currents[nm]]
            self._fused[key] = lst
        return lst

    def product_vec(self, names, modes, state: FockState) -> dict:
        """(X_{modes[0]} ... X_{modes[-1]}) |state> for E/F currents.

        Applies one mode at a time, rightmost first; each single-mode
        action is cached, so products sharing a tail are cheap."""
        vec = {state: self.table.one()}
        for name, n in zip(reversed(names), reversed(modes)):
            vec = self.mode_vec(name, n, vec)
            if not vec:
                break
        return vec

    def _apply_mode(self, name: str, n: int, state: FockState):
        key = (name, n, state)
        hit = self._app.get(key)
        if hit is not None:
            return hit
        if name.startswith("H") and n < 0 and state != VACUUM:
            # a creation mode puts the same scalars on every state, so the
            # vacuum's image (cached under its own key) is shared by all
            acc = {FockState(state.momenta, occ_add(state.occ, s.occ)): c
                   for s, c in self._apply_mode(name, n, VACUUM)}
        elif name.startswith("H"):
            acc = apply_oscillator(self.alg, self._h_coeffs(int(name[1:]), n), n, state)
        else:
            if name.startswith("psi"):
                target = -n
                pref = self.gamma_pow(Fraction(n, 2) if name.endswith("+") else Fraction(-n, 2))
            else:
                target = -n - 1
                pref = None
            acc = {}
            for vt in self.currents[name]:
                for s, c in self.engine.extract(self.engine.single(vt), (target,), state).items():
                    add_term(acc, s, c if pref is None else c * pref)
        hit = tuple(acc.items())
        self._app[key] = hit
        return hit

    def _h_coeffs(self, i: int, n: int) -> dict:
        hit = self._hc.get((i, n))
        if hit is None:
            hit = self._hc[(i, n)] = h_coeffs(self.table, i, n)
        return hit

    def _act(self, name: str, n: int, vec: dict) -> dict:
        out: dict = {}
        for state, c in vec.items():
            for s, c2 in self._apply_mode(name, n, state):
                add_term(out, s, c2 * c)
        return out

    def mode_vec(self, name: str, n: int, vec: dict) -> dict:
        """X_n applied to a vector; psi modes carry their gamma^(+-n) factor."""
        return self._act(name, n, vec)

    def h_vec(self, i: int, n: int, vec: dict) -> dict:
        """H^i_n applied to a vector (n != 0: zero modes act through K)."""
        return self._act(f"H{i}", n, vec)

    def combo_vec(self, pieces, state: FockState) -> dict:
        """Weighted sum of current products applied to one state.

        pieces: iterable of (names, modes, weight or None).  All products
        are extracted jointly, so the terms of a relation cancel while
        the intermediate scalars are still narrow."""
        return self.engine.extract_sum(self._jobs(pieces), state)

    def combo_zero(self, pieces, state: FockState) -> dict:
        """combo_vec through the packed-row engine, for relations whose
        right side is zero; falls back to the exact path on any guard."""
        jobs = self._jobs(pieces)
        try:
            return self.bulk.combo_residual(jobs, state)
        except BulkError:
            return self.engine.extract_sum(jobs, state)

    def _jobs(self, pieces) -> list:
        jobs = []
        for names, modes, weight in pieces:
            targets = tuple(-n - 1 for n in modes)
            for f in self.fused_terms(names):
                jobs.append((f, targets, weight))
        return jobs

    def _pair_pieces(self, nameA: str, nA: int, nameB: str, nB: int,
                     xi: RingElem = None) -> list:
        """The two pieces of [A_nA, B_nB]_xi with the Koszul sign."""
        sign = graded_bracket_sign(CURRENT_PARITY[nameA], CURRENT_PARITY[nameB])
        w = self.table.rational(-sign)
        if xi is not None:
            w = w * xi
        return [((nameA, nameB), (nA, nB), None), ((nameB, nameA), (nB, nA), w)]

    def graded_pair(self, nameA: str, nA: int, nameB: str, nB: int, state: FockState,
                    xi: RingElem = None) -> dict:
        """[A_nA, B_nB]_xi |state> with the Koszul sign from the parities."""
        return self.combo_vec(self._pair_pieces(nameA, nA, nameB, nB, xi), state)

    def h_scalar(self, i: int, j: int, n: int) -> RingElem:
        """The central value of [H^i_n, H^j_{-n}] from the raw contractions."""
        ci = self._h_coeffs(i, n)
        cj = self._h_coeffs(j, -n)
        tot = self.table.zero()
        for f1, c1 in ci.items():
            for f2, c2 in cj.items():
                v = self.alg.contract_raw_raw(f1, f2, n)
                if not v.is_zero():
                    tot = tot + c1 * c2 * v
        return tot

    def eq8_rhs_scalar(self, i: int, j: int, n: int) -> RingElem:
        """(1/n)[a_ij n](gamma^n - gamma^-n)/(q - q^-1)."""
        a = A_CARTAN[(i, j)]
        if a == 0:
            return self.table.zero()
        return (
            self.table.qint(a * n)
            * self.table.qbracket(LinForm(0, {"k": Fraction(n)}))
            * Fraction(1, n)
        )


def _run_cases(ctx: AffineContext, rel_id: str, params: dict, cases) -> RelationResult:
    """Compare lhs/rhs state vectors case by case, outputs in state order."""
    return compare_cases(ctx.seed, rel_id, params, cases, ctx.table.zero(),
                         None, format_state)


def _kstr(k) -> str:
    return "formal" if k is None else str(k)


def check_eq6(ctx: AffineContext, window: int) -> list:
    """gamma = q^k is a central scalar: powers compose and commute with
    every coefficient the engine produces."""
    T = ctx.table
    cases = []
    for n in range(1, 7):
        cases.append((
            f"gamma^{n}*gamma^-{n}",
            {VACUUM: ctx.gamma_pow(n) * ctx.gamma_pow(-n)},
            {VACUUM: T.one()},
        ))
    g = ctx.gamma_pow(1)
    sample = ctx.product_vec(("E1", "F1"), (0, 0), VACUUM)
    sample.update(ctx.mode_vec("E2", -1, {VACUUM: T.one()}))
    for s in sorted(sample):
        c = sample[s]
        cases.append((f"commutes at {format_state(s)}", {s: g * c}, {s: c * g}))
    rel_id = f"drinfeld.eq6.k={_kstr(ctx.k)}"
    return [_run_cases(ctx, rel_id, {"k": _kstr(ctx.k)}, cases)]


def check_eq7(ctx: AffineContext, basis: list, window: int) -> list:
    """K_i X^{+-,j}_n K_i^-1 = q^{+-a_ij} X^{+-,j}_n and [K_i, H^j_n] = 0."""
    T = ctx.table
    out = []
    for i in (1, 2):
        for j in (1, 2):
            a = A_CARTAN[(i, j)]
            for sign, name in (("plus", f"E{j}"), ("minus", f"F{j}")):
                scale = T.qpow(LinForm(a if sign == "plus" else -a))
                cases = []
                for state in basis:
                    kin = k_eigenvalue(T, i, state) * scale
                    for n in range(-window, window + 1):
                        vec = ctx.mode_vec(name, n, {state: T.one()})
                        lhs = {s: c * k_eigenvalue(T, i, s) for s, c in vec.items()}
                        rhs = {s: c * kin for s, c in vec.items()}
                        cases.append((f"{format_state(state)} n={n}", lhs, rhs))
                rel_id = f"drinfeld.eq7.i={i}.j={j}.gen=E.sign={sign}"
                params = {"i": i, "j": j, "gen": "E", "sign": sign, "window": window}
                out.append(_run_cases(ctx, rel_id, params, cases))
            cases = []
            for state in basis:
                kin = k_eigenvalue(T, i, state)
                for n in range(-window, window + 1):
                    if n == 0:
                        continue
                    vec = ctx.h_vec(j, n, {state: T.one()})
                    lhs = {s: c * k_eigenvalue(T, i, s) for s, c in vec.items()}
                    rhs = {s: c * kin for s, c in vec.items()}
                    cases.append((f"{format_state(state)} n={n}", lhs, rhs))
            rel_id = f"drinfeld.eq7.i={i}.j={j}.gen=H"
            params = {"i": i, "j": j, "gen": "H", "window": window}
            out.append(_run_cases(ctx, rel_id, params, cases))
    return out


def check_eq8(ctx: AffineContext, basis: list, window: int, scalar_max: int = 6) -> list:
    """[H^i_n, H^j_m] = delta_{n+m,0} (1/n)[a_ij n](gamma^n - gamma^-n)/(q-q^-1),
    as maps inside the window and as central scalars out to |n| = scalar_max."""
    T = ctx.table
    out = []
    for i in (1, 2):
        for j in (1, 2):
            seen = set()
            for n in [x for x in range(-window, window + 1) if x]:
                for m in [x for x in range(-window, window + 1) if x]:
                    seen.add((n, m))
                    rhs_scalar = ctx.eq8_rhs_scalar(i, j, n) if m == -n else None
                    cases = []
                    if m == -n:
                        cases.append((
                            "central-term",
                            {VACUUM: ctx.h_scalar(i, j, n)},
                            {VACUUM: rhs_scalar},
                        ))
                    for state in basis:
                        one = {state: T.one()}
                        lhs = vec_sub(
                            ctx.h_vec(i, n, ctx.h_vec(j, m, one)),
                            ctx.h_vec(j, m, ctx.h_vec(i, n, one)),
                        )
                        rhs = {} if m != -n else {state: rhs_scalar}
                        cases.append((format_state(state), lhs, rhs))
                    rel_id = f"drinfeld.eq8.i={i}.j={j}.n={n}.m={m}"
                    params = {"i": i, "j": j, "n": n, "m": m}
                    out.append(_run_cases(ctx, rel_id, params, cases))
            for n in [x for s in range(window + 1, scalar_max + 1) for x in (s, -s)]:
                m = -n
                cases = [(
                    "central-term",
                    {VACUUM: ctx.h_scalar(i, j, n)},
                    {VACUUM: ctx.eq8_rhs_scalar(i, j, n)},
                )]
                rel_id = f"drinfeld.eq8.i={i}.j={j}.n={n}.m={m}"
                params = {"i": i, "j": j, "n": n, "m": m, "scalar-only": True}
                out.append(_run_cases(ctx, rel_id, params, cases))
    return out


def check_eq9(ctx: AffineContext, basis: list, window: int) -> list:
    """[H^i_n, X^{+-,j}_m] = +-(1/n)[a_ij n] gamma^{-+|n|/2} X^{+-,j}_{n+m}."""
    T = ctx.table
    out = []
    for i in (1, 2):
        for j in (1, 2):
            a = A_CARTAN[(i, j)]
            for sign, name in (("plus", f"E{j}"), ("minus", f"F{j}")):
                s = 1 if sign == "plus" else -1
                for n in [x for x in range(-window, window + 1) if x]:
                    coeff = (
                        T.qint(a * n)
                        * Fraction(s, n)
                        * ctx.gamma_pow(Fraction(-s * abs(n), 2))
                    )
                    for m in range(-window, window + 1):
                        cases = []
                        for state in basis:
                            one = {state: T.one()}
                            lhs = vec_sub(
                                ctx.h_vec(i, n, ctx.mode_vec(name, m, one)),
                                ctx.mode_vec(name, m, ctx.h_vec(i, n, one)),
                            )
                            rhs = vec_scale(ctx.mode_vec(name, n + m, one), coeff)
                            cases.append((format_state(state), lhs, rhs))
                        rel_id = f"drinfeld.eq9.i={i}.j={j}.sign={sign}.n={n}.m={m}"
                        params = {"i": i, "j": j, "sign": sign, "n": n, "m": m}
                        out.append(_run_cases(ctx, rel_id, params, cases))
    return out


def check_eq10(ctx: AffineContext, basis: list, window: int) -> list:
    """[E^i_n, F^j_m} = delta_ij (gamma^{(n-m)/2} psi^i_{+,n+m}
    - gamma^{-(n-m)/2} psi^i_{-,n+m})/(q - q^-1)."""
    T = ctx.table
    inv = T.qdiff_inv()
    out = []
    for i in (1, 2):
        for j in (1, 2):
            for n in range(-window, window + 1):
                for m in range(-window, window + 1):
                    cases = []
                    for state in basis:
                        lhs = ctx.graded_pair(f"E{i}", n, f"F{j}", m, state)
                        if i != j:
                            rhs = {}
                        else:
                            one = {state: T.one()}
                            plus = vec_scale(
                                ctx.mode_vec(f"psi{i}+", n + m, one),
                                ctx.gamma_pow(Fraction(n - m, 2)) * inv,
                            )
                            minus = vec_scale(
                                ctx.mode_vec(f"psi{i}-", n + m, one),
                                ctx.gamma_pow(Fraction(m - n, 2)) * inv,
                            )
                            rhs = vec_sub(plus, minus)
                        cases.append((format_state(state), lhs, rhs))
                    rel_id = f"drinfeld.eq10.i={i}.j={j}.n={n}.m={m}.k={_kstr(ctx.k)}"
                    params = {"i": i, "j": j, "n": n, "m": m, "k": _kstr(ctx.k)}
                    out.append(_run_cases(ctx, rel_id, params, cases))
    return out


def check_eq11(ctx: AffineContext, basis: list, window: int) -> list:
    """[X_{n+1}^i, X_m^j]_{q^{+-a_ij}} + [X_{m+1}^j, X_n^i]_{q^{+-a_ij}} = 0
    for the Cartan pairs with a_ij != 0 handled by the quadratic exchange."""
    T = ctx.table
    out = []
    for (i, j) in ((1, 1), (1, 2), (2, 2)):
        a = A_CARTAN[(i, j)]
        for sign, pref in (("plus", "E"), ("minus", "F")):
            s = 1 if sign == "plus" else -1
            xi = T.qpow(LinForm(s * a))
            for n in range(-window, window + 1):
                for m in range(-window, window + 1):
                    pieces = ctx._pair_pieces(f"{pref}{i}", n + 1, f"{pref}{j}", m, xi)
                    pieces += ctx._pair_pieces(f"{pref}{j}", m + 1, f"{pref}{i}", n, xi)
                    cases = []
                    for state in basis:
                        lhs = ctx.combo_zero(pieces, state)
                        cases.append((format_state(state), lhs, {}))
                    rel_id = f"drinfeld.eq11.i={i}.j={j}.sign={sign}.n={n}.m={m}"
                    params = {"i": i, "j": j, "sign": sign, "n": n, "m": m}
                    out.append(_run_cases(ctx, rel_id, params, cases))
    return out


def check_eq12(ctx: AffineContext, basis: list, window: int) -> list:
    """[X^i_n, X^j_m} = 0 for the pair with a_ij = 0 (both generators odd,
    so the bracket is the anticommutator)."""
    out = []
    for sign, pref in (("plus", "E"), ("minus", "F")):
        for n in range(-window, window + 1):
            for m in range(n, window + 1):
                pieces = ctx._pair_pieces(f"{pref}2", n, f"{pref}2", m)
                cases = []
                for state in basis:
                    lhs = ctx.combo_vec(pieces, state)
                    cases.append((format_state(state), lhs, {}))
                rel_id = f"drinfeld.eq12.i=2.j=2.sign={sign}.n={n}.m={m}"
                params = {"i": 2, "j": 2, "sign": sign, "n": n, "m": m}
                out.append(_run_cases(ctx, rel_id, params, cases))
    return out


def check_eq13(ctx: AffineContext, basis: list, window: int) -> list:
    """[X^1_{n1}, [X^1_{n2}, X^2_m]_{q^-1}]_q + (n1 <-> n2) = 0, the cubic
    Serre relation for the adjacent even/odd node pair."""
    T = ctx.table
    mq = -T.qpow(LinForm(1))
    mqinv = -T.qpow(LinForm(-1))
    out = []
    for sign, pref in (("plus", "E"), ("minus", "F")):
        names_aab = (f"{pref}1", f"{pref}1", f"{pref}2")
        names_aba = (f"{pref}1", f"{pref}2", f"{pref}1")
        names_baa = (f"{pref}2", f"{pref}1", f"{pref}1")
        for n1 in range(-window, window + 1):
            for n2 in range(n1, window + 1):
                for m in range(-window, window + 1):
                    pieces = []
                    for (na, nb) in ((n1, n2), (n2, n1)):
                        pieces += [
                            (names_aab, (na, nb, m), None),
                            (names_aba, (na, m, nb), mqinv),
                            (names_aba, (nb, m, na), mq),
                            (names_baa, (m, nb, na), None),
                        ]
                    cases = []
                    for state in basis:
                        lhs = ctx.combo_zero(pieces, state)
                        cases.append((format_state(state), lhs, {}))
                    rel_id = (
                        f"drinfeld.eq13.i=1.j=2.sign={sign}.n1={n1}.n2={n2}.m={m}"
                    )
                    params = {"i": 1, "j": 2, "sign": sign, "n1": n1, "n2": n2, "m": m}
                    out.append(_run_cases(ctx, rel_id, params, cases))
    return out


def check_eq14(ctx: AffineContext) -> list:
    """The quartic Serre relation needs the odd node to have two even
    neighbours; rank 2 has none, so the relation set is empty here."""
    return [RelationResult(
        "drinfeld.eq14", "not-applicable", 0, {"M": 2, "N": 1},
        witness={"reason": "needs nodes 1 and 3 inside 1..2"},
    )]


def _partitions(n: int) -> list:
    """Multisets of positive integers summing to n, parts descending."""
    out = []

    def rec(rem, maxpart, cur):
        if rem == 0:
            out.append(tuple(cur))
            return
        for p in range(min(rem, maxpart), 0, -1):
            cur.append(p)
            rec(rem - p, p, cur)
            cur.pop()

    rec(n, n, [])
    return out


def check_eq15(ctx: AffineContext, basis: list, nmax: int) -> list:
    """psi modes from the displayed products of half fields against the
    generating function K^{+-1} exp(+-(q-q^-1) sum_{+-n>0} H^i_n z^-n)."""
    T = ctx.table
    out = []
    for i in (1, 2):
        for sign, sgn in (("plus", 1), ("minus", -1)):
            for n in range(-nmax, nmax + 1):
                cases = []
                for state in basis:
                    one = {state: T.one()}
                    lhs = ctx.mode_vec(f"psi{i}{'+' if sgn > 0 else '-'}", n, one)
                    if sgn * n < 0:
                        rhs: dict = {}
                    else:
                        keig = k_eigenvalue(T, i, state)
                        if sgn < 0:
                            keig = keig.inverse()
                        rhs = {}
                        for parts in _partitions(abs(n)):
                            vec = one
                            for p in parts:
                                vec = ctx.h_vec(i, sgn * p, vec)
                            mults = Counter(parts)
                            coeff = (T.qdiff() * sgn) ** len(parts) * Fraction(
                                1, prod(map(factorial, mults.values()))
                            )
                            for s, c in vec.items():
                                add_term(rhs, s, c * coeff * keig)
                    cases.append((format_state(state), lhs, rhs))
                rel_id = f"psi.eq15.i={i}.sign={sign}.n={n}"
                params = {"i": i, "sign": sign, "n": n}
                out.append(_run_cases(ctx, rel_id, params, cases))
    return out


# Every relation family in run order, each called as
# family(ctx, basis, window, psi_nmax) -> list of RelationResult.
FAMILIES = {
    "eq6": lambda ctx, basis, window, psi_nmax: check_eq6(ctx, window),
    "eq7": lambda ctx, basis, window, psi_nmax: check_eq7(ctx, basis, window),
    "eq8": lambda ctx, basis, window, psi_nmax: check_eq8(ctx, basis, window),
    "eq9": lambda ctx, basis, window, psi_nmax: check_eq9(ctx, basis, window),
    "eq10": lambda ctx, basis, window, psi_nmax: check_eq10(ctx, basis, window),
    "eq11": lambda ctx, basis, window, psi_nmax: check_eq11(ctx, basis, window),
    "eq12": lambda ctx, basis, window, psi_nmax: check_eq12(ctx, basis, window),
    "eq13": lambda ctx, basis, window, psi_nmax: check_eq13(ctx, basis, window),
    "eq14": lambda ctx, basis, window, psi_nmax: check_eq14(ctx),
    "eq15": lambda ctx, basis, window, psi_nmax: check_eq15(ctx, basis, psi_nmax),
}


def run_affine(E_cut: int = 2, window: int = 2, k=None, radius: int = 0,
               norm: str = "l1", psi_nmax: int = 4, seed: int = 0,
               f_overrides=None) -> list:
    """All affine relation results for one configuration, unsorted."""
    ctx = AffineContext(k=k, f_overrides=f_overrides, seed=seed)
    basis = enumerate_basis(E_cut, radius, norm)
    return [r for family in FAMILIES.values()
            for r in family(ctx, basis, window, psi_nmax)]


def affine_config(E_cut: int, window: int, k, radius: int, norm: str,
                  psi_nmax: int, override_spec=None) -> dict:
    return {
        "M": 2,
        "N": 1,
        "k": _kstr(k),
        "energy_cut": E_cut,
        "mode_window": window,
        "momentum_radius": radius,
        "momentum_norm": norm,
        "psi_nmax": psi_nmax,
        "overrides": dict(override_spec or {}),
    }
