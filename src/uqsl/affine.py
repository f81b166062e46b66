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

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .currents import (
    CURRENT_PARITY,
    VertexEngine,
    default_e_values,
    f_constants,
    h_coeffs,
    make_currents,
)
from .oscillators import (
    NODES,
    ROOT,
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
from .report import run_family, run_instances
# Re-exported: perfbench/spans.py swaps affine.numeric_check for a timing
# wrapper and fails if the attribute is missing.
from .report import numeric_check  # noqa: F401
from .ring import LinForm, RingElem, affine_symbols
from .structure import graded_bracket_sign

# eq11 runs every node pair i <= j, eq12 the pairs with a_ij = 0, eq13 the
# cubic Serre pairs
EQ11_PAIRS = tuple((i, j) for i in NODES for j in NODES if i <= j)
EQ12_PAIRS = tuple((i, j) for i, j in EQ11_PAIRS if ROOT.cartan(i, j) == 0)
EQ13_PAIRS = ROOT.serre_pairs()


class AffineContext:
    """One realization instance: symbol table, currents, fused products;
    the packed kernel (bulk.py, numpy) loads on the first combo_zero call."""

    def __init__(self, k=None, f_overrides=None, seed: int = 0):
        self.k = k
        self.seed = seed
        self.table = affine_symbols(k)
        self.alg = OscillatorAlgebra(self.table)
        self.engine = VertexEngine(self.alg)
        self.e_values = default_e_values(self.table)
        self.f_values = f_constants(self.table, self.e_values, f_overrides)
        self.currents = make_currents(self.engine, {**self.e_values, **self.f_values})
        self._fused: dict = {}
        # (name, n, state) -> ((state, coeff), ...) for one mode on one
        # state; name is an E/F/psi current or "H<i>" for H^i_n.
        self._app: dict = {}
        self._hc: dict = {}  # (i, n) -> h_coeffs(table, i, n)

    @functools.cached_property
    def bulk(self):
        from .bulk import BulkEngine
        return BulkEngine(self.engine)

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
            acc = self.engine.extract_sum(self._jobs((((name,), (n,), None),)), state)
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
        """X_n applied to a vector; a psi mode carries its gamma factor (_mode)."""
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

    def combo_zero(self, jobs, state: FockState) -> list:
        """Pass one of _zero_cases on one state: jobs holds each relation
        instance's job list, as _jobs builds it from the instance's pieces,
        and entry i is True when one call of the packed-row engine certifies
        that the top branch of instance i's residual vanishes on state.
        All False when a guard trips."""
        from .bulk import BulkError
        bulk = self.bulk  # outside the try: a constructor error is no fallback
        try:
            return bulk.combo_residual(jobs, state)
        except BulkError:
            return [False] * len(jobs)

    def _mode(self, name: str, n: int):
        """(z-target, gamma factor or None) of mode n of current name:
        psi^{+-}_n is the z^-n coefficient times gamma^{+-n/2}, E_n and F_n
        the z^{-n-1} coefficient."""
        if name.startswith("psi"):
            return -n, self.gamma_pow(Fraction(n if name.endswith("+") else -n, 2))
        return -n - 1, None

    def _jobs(self, pieces) -> list:
        """The jobs of a weighted sum of current products.  Pieces with
        equal (names, modes) are one product weighted by the sum of their
        weights (None counts as 1), dropped when that sum is zero; a psi
        mode multiplies in its gamma factor."""
        merged: dict = {}
        for names, modes, weight in pieces:
            key = (tuple(names), tuple(modes))
            if key in merged:
                prev = merged[key]
                one = self.table.one()
                weight = (one if prev is None else prev) + (one if weight is None else weight)
            merged[key] = weight
        jobs = []
        for (names, modes), weight in merged.items():
            if weight is not None and weight.is_zero():
                continue
            targets = []
            for name, n in zip(names, modes):
                target, factor = self._mode(name, n)
                targets.append(target)
                if factor is not None:
                    weight = factor if weight is None else weight * factor
            for f in self.fused_terms(names):
                jobs.append((f, tuple(targets), weight))
        return jobs

    def _pair_pieces(self, nameA: str, nA: int, nameB: str, nB: int,
                     xi: RingElem = None) -> list:
        """The two pieces of [A_nA, B_nB]_xi with the Koszul sign."""
        sign = graded_bracket_sign(CURRENT_PARITY[nameA], CURRENT_PARITY[nameB])
        w = self.table.rational(-sign)
        if xi is not None:
            w = w * xi
        return [((nameA, nameB), (nA, nB), None), ((nameB, nameA), (nB, nA), w)]

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
        a = ROOT.cartan(i, j)
        if a == 0:
            return self.table.zero()
        return (
            self.table.qint(a * n)
            * self.table.qbracket(LinForm(0, {"k": Fraction(n)}))
            * Fraction(1, n)
        )


def _family(prefix: str, *keys):
    """check(ctx, ...) from a generator of (params, cases): one
    RelationResult per instance, its id read off its params by the keys,
    outputs compared in state order."""
    def wrap(instances):
        @functools.wraps(instances)
        def check(ctx: AffineContext, *args, **kwargs) -> list:
            return run_instances(ctx.seed, prefix, keys, instances(ctx, *args, **kwargs),
                                 ctx.table.zero(), None, format_state)
        return check
    return wrap


def _sub_reach(basis: list):
    """Per state of basis, the last position in basis of its
    sub-occupations at the same momenta (the state among them), or None
    when one of them is not in basis: the basis is not closed under
    sub-occupations."""
    pos = {s: i for i, s in enumerate(basis)}
    reach = []
    for s in basis:
        last = -1
        for mults in itertools.product(*(range(mult + 1) for _, mult in s.occ)):
            sub = FockState(s.momenta, tuple((mode, k) for (mode, _), k in zip(s.occ, mults) if k))
            i = pos.get(sub)
            if i is None:
                return None
            last = max(last, i)
        reach.append(last)
    return reach


def _zero_cases(ctx: AffineContext, basis: list, instances) -> list:
    """(params, pieces) of relation instances whose right side is zero ->
    (params, cases), in two passes.

    The residual R of an instance acts on a state s as
    R|s> = sum over sub-occupations a of s of c(s, a) R_a|s - a>, where
    R_a annihilates the letters a, c(s, a) is a nonzero multinomial and R_a
    does not depend on the rest of s; the top branch of R on s is the term
    a = s.  So when the top branches on every sub-occupation of s vanish,
    R|s> = 0 (the normal-ordered/PBW argument, Kac, Vertex Algebras for
    Beginners, 1998).

    Pass one, state by state in basis order: one combo_zero call per state
    certifies the top branch of every live instance, and an instance drops
    out at its first state that is not certified, a state whose call tripped
    a guard included.  Pass two, instance by
    instance: a state whose sub-occupations at the same momenta were all
    certified has case {}, any other gets its full residual from
    extract_sum.  compare_cases reports a relation's first nonzero
    difference and asks the oracle only when there is none, so every case
    after an instance's first nonzero residual is {} too.  A basis that is
    not closed under sub-occupations sends every state to extract_sum."""
    jobs = [ctx._jobs(pieces) for _, pieces in instances]
    n = len(basis)
    reach = _sub_reach(basis)
    # bad[k]: the position of instance k's first uncertified state
    if reach is None:
        reach, bad = range(n), [0] * len(jobs)
    else:
        bad = [n] * len(jobs)
        live = list(jobs)
        for i, s in enumerate(basis):
            if not any(live):
                break
            for k, ok in enumerate(ctx.combo_zero(live, s)):
                if not ok and bad[k] == n:
                    bad[k] = i
                    live[k] = []
    labels = [format_state(s) for s in basis]
    out = []
    for (params, _), inst_jobs, first_bad in zip(instances, jobs, bad):
        cases = []
        leaked = False
        for s, label, last in zip(basis, labels, reach):
            res = {}
            if not leaked and last >= first_bad:
                res = ctx.engine.extract_sum(inst_jobs, s)
                leaked = bool(res)
            cases.append((label, res, {}))
        out.append((params, cases))
    return out


def _kstr(k) -> str:
    return "formal" if k is None else str(k)


@_family("drinfeld.eq6", "k")
def check_eq6(ctx: AffineContext, window: int):
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
    yield {"k": _kstr(ctx.k)}, cases


@_family("drinfeld.eq7", "i", "j", "gen", "sign")
def check_eq7(ctx: AffineContext, basis: list, window: int):
    """K_i X^{+-,j}_n K_i^-1 = q^{+-a_ij} X^{+-,j}_n and [K_i, H^j_n] = 0."""
    T = ctx.table
    modes = range(-window, window + 1)

    def conj_cases(i, act, scale, ns):
        # K_i X_n |state> against scale X_n K_i |state>, X_n = act(n, .)
        for state in basis:
            kin = k_eigenvalue(T, i, state) * scale
            for n in ns:
                vec = act(n, {state: T.one()})
                lhs = {s: c * k_eigenvalue(T, i, s) for s, c in vec.items()}
                yield f"{format_state(state)} n={n}", lhs, {s: c * kin for s, c in vec.items()}

    for i in NODES:
        for j in NODES:
            a = ROOT.cartan(i, j)
            for sign, name in (("plus", f"E{j}"), ("minus", f"F{j}")):
                scale = T.qpow(LinForm(a if sign == "plus" else -a))
                act = functools.partial(ctx.mode_vec, name)
                yield ({"i": i, "j": j, "gen": "E", "sign": sign, "window": window},
                       conj_cases(i, act, scale, modes))
            act = functools.partial(ctx.h_vec, j)
            yield ({"i": i, "j": j, "gen": "H", "window": window},
                   conj_cases(i, act, T.one(), [n for n in modes if n]))


# eq8 checks its central scalars out to |n| = EQ8_SCALAR_MAX
EQ8_SCALAR_MAX = 6


@_family("drinfeld.eq8", "i", "j", "n", "m")
def check_eq8(ctx: AffineContext, basis: list, window: int):
    """[H^i_n, H^j_m] = delta_{n+m,0} (1/n)[a_ij n](gamma^n - gamma^-n)/(q-q^-1),
    as maps inside the window and as central scalars out to |n| = EQ8_SCALAR_MAX."""
    T = ctx.table
    inside = [x for x in range(-window, window + 1) if x]
    beyond = [x for s in range(window + 1, EQ8_SCALAR_MAX + 1) for x in (s, -s)]
    for i in NODES:
        for j in NODES:
            for n in inside + beyond:
                for m in inside if n in inside else (-n,):
                    cases = []
                    if m == -n:
                        rhs_scalar = ctx.eq8_rhs_scalar(i, j, n)
                        cases.append(("central-term", {VACUUM: ctx.h_scalar(i, j, n)},
                                      {VACUUM: rhs_scalar}))
                    params = {"i": i, "j": j, "n": n, "m": m}
                    if n in beyond:
                        params["scalar-only"] = True
                    else:
                        for state in basis:
                            one = {state: T.one()}
                            lhs = vec_sub(ctx.h_vec(i, n, ctx.h_vec(j, m, one)),
                                          ctx.h_vec(j, m, ctx.h_vec(i, n, one)))
                            rhs = {} if m != -n else {state: rhs_scalar}
                            cases.append((format_state(state), lhs, rhs))
                    yield params, cases


@_family("drinfeld.eq9", "i", "j", "sign", "n", "m")
def check_eq9(ctx: AffineContext, basis: list, window: int):
    """[H^i_n, X^{+-,j}_m] = +-(1/n)[a_ij n] gamma^{-+|n|/2} X^{+-,j}_{n+m}."""
    T = ctx.table
    for i in NODES:
        for j in NODES:
            a = ROOT.cartan(i, j)
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
                        yield {"i": i, "j": j, "sign": sign, "n": n, "m": m}, cases


@_family("drinfeld.eq10", "i", "j", "n", "m", "k")
def check_eq10(ctx: AffineContext, basis: list, window: int):
    """[E^i_n, F^j_m} = delta_ij (gamma^{(n-m)/2} psi^i_{+,n+m}
    - gamma^{-(n-m)/2} psi^i_{-,n+m})/(q - q^-1), as one residual."""
    inv = ctx.table.qdiff_inv()
    for i in NODES:
        for j in NODES:
            for n in range(-window, window + 1):
                for m in range(-window, window + 1):
                    pieces = ctx._pair_pieces(f"E{i}", n, f"F{j}", m)
                    if i == j:
                        pieces += [
                            ((f"psi{i}+",), (n + m,), -ctx.gamma_pow(Fraction(n - m, 2)) * inv),
                            ((f"psi{i}-",), (n + m,), ctx.gamma_pow(Fraction(m - n, 2)) * inv),
                        ]
                    yield ({"i": i, "j": j, "n": n, "m": m, "k": _kstr(ctx.k)},
                           ((format_state(s), ctx.combo_vec(pieces, s), {}) for s in basis))


@_family("drinfeld.eq11", "i", "j", "sign", "n", "m")
def check_eq11(ctx: AffineContext, basis: list, window: int):
    """[X_{n+1}^i, X_m^j]_{q^{+-a_ij}} + [X_{m+1}^j, X_n^i]_{q^{+-a_ij}} = 0
    for every node pair i <= j (a_22 = 0 included)."""
    T = ctx.table
    instances = []
    for (i, j) in EQ11_PAIRS:
        a = ROOT.cartan(i, j)
        for sign, pref in (("plus", "E"), ("minus", "F")):
            s = 1 if sign == "plus" else -1
            xi = T.qpow(LinForm(s * a))
            for n in range(-window, window + 1):
                for m in range(-window, window + 1):
                    pieces = ctx._pair_pieces(f"{pref}{i}", n + 1, f"{pref}{j}", m, xi)
                    pieces += ctx._pair_pieces(f"{pref}{j}", m + 1, f"{pref}{i}", n, xi)
                    instances.append(({"i": i, "j": j, "sign": sign, "n": n, "m": m}, pieces))
    yield from _zero_cases(ctx, basis, instances)


@_family("drinfeld.eq12", "i", "j", "sign", "n", "m")
def check_eq12(ctx: AffineContext, basis: list, window: int):
    """[X^i_n, X^j_m} = 0 for the pairs with a_ij = 0 (for (2|1) the odd
    node with itself, so the bracket is the anticommutator)."""
    for (i, j) in EQ12_PAIRS:
        for sign, pref in (("plus", "E"), ("minus", "F")):
            for n in range(-window, window + 1):
                for m in range(n if i == j else -window, window + 1):
                    pieces = ctx._pair_pieces(f"{pref}{i}", n, f"{pref}{j}", m)
                    yield ({"i": i, "j": j, "sign": sign, "n": n, "m": m},
                           ((format_state(s), ctx.combo_vec(pieces, s), {}) for s in basis))


@_family("drinfeld.eq13", "i", "j", "sign", "n1", "n2", "m")
def check_eq13(ctx: AffineContext, basis: list, window: int):
    """[X^i_{n1}, [X^i_{n2}, X^j_m]_{q^-1}]_q + (n1 <-> n2) = 0, the cubic
    Serre relation for each pair of EQ13_PAIRS (X^i even, j adjacent)."""
    T = ctx.table
    mq = -T.qpow(LinForm(1))
    mqinv = -T.qpow(LinForm(-1))
    instances = []
    for (i, j) in EQ13_PAIRS:
        for sign, pref in (("plus", "E"), ("minus", "F")):
            x, y = f"{pref}{i}", f"{pref}{j}"
            names_aab, names_aba, names_baa = (x, x, y), (x, y, x), (y, x, x)
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
                        params = {"i": i, "j": j, "sign": sign,
                                  "n1": n1, "n2": n2, "m": m}
                        instances.append((params, pieces))
    yield from _zero_cases(ctx, basis, instances)


@_family("drinfeld.eq14")
def check_eq14(ctx: AffineContext):
    """The quartic Serre relation needs the odd node M to have two
    neighbours M - 1 and M + 1; rank 2 has no node 3, so the relation set is
    empty here."""
    M = ROOT.M
    yield {"M": M, "N": ROOT.N}, f"needs nodes {M - 1} and {M + 1} inside 1..{ROOT.rank}"


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


@_family("psi.eq15", "i", "sign", "n")
def check_eq15(ctx: AffineContext, basis: list, nmax: int):
    """psi modes from the displayed products of half fields against the
    generating function K^{+-1} exp(+-(q-q^-1) sum_{+-n>0} H^i_n z^-n)."""
    T = ctx.table
    for i in NODES:
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
                yield {"i": i, "sign": sign, "n": n}, cases


# Every relation family in run order: (check, the options it reads, in
# order), run through report.run_family with the options ctx, basis, window
# and psi_nmax.
FAMILIES = {
    "eq6": (check_eq6, ("ctx", "window")),
    "eq7": (check_eq7, ("ctx", "basis", "window")),
    "eq8": (check_eq8, ("ctx", "basis", "window")),
    "eq9": (check_eq9, ("ctx", "basis", "window")),
    "eq10": (check_eq10, ("ctx", "basis", "window")),
    "eq11": (check_eq11, ("ctx", "basis", "window")),
    "eq12": (check_eq12, ("ctx", "basis", "window")),
    "eq13": (check_eq13, ("ctx", "basis", "window")),
    "eq14": (check_eq14, ("ctx",)),
    "eq15": (check_eq15, ("ctx", "basis", "psi_nmax")),
}


def run_affine(E_cut: int = 2, window: int = 2, k=None, radius: int = 0,
               norm: str = "l1", psi_nmax: int = 4, seed: int = 0,
               f_overrides=None) -> list:
    """All affine relation results for one configuration, unsorted."""
    opts = {"ctx": AffineContext(k=k, f_overrides=f_overrides, seed=seed),
            "basis": enumerate_basis(E_cut, radius, norm),
            "window": window, "psi_nmax": psi_nmax}
    return [r for family in FAMILIES.values() for r in run_family(family, opts)]


def affine_config(E_cut: int, window: int, k, radius: int, norm: str,
                  psi_nmax: int, override_spec=None) -> dict:
    return {
        "M": ROOT.M,
        "N": ROOT.N,
        "k": _kstr(k),
        "energy_cut": E_cut,
        "mode_window": window,
        "momentum_radius": radius,
        "momentum_norm": norm,
        "psi_nmax": psi_nmax,
        "overrides": dict(override_spec or {}),
    }
