"""Normal-ordered vertex operators and exact mode extraction.

Every current is a sum of terms const * z^p0 * :exp(sum of oscillator
fields):, and each term is kept in the canonical normal-ordered split

    (creation exp) (e^{eps Q} word) q^{sum sigma_d d_0} z^{sum tau_d d_0}
    (annihilation exp).

Products of terms are fused back into this shape: moving one term's
annihilation exponential past another's creation exponential produces the
contraction function G(x) = prod_c (1 - q^c x)^(-e_c) in x = z_right/z_left,
whose exponents are read off its first order kappa_1 = sum_c e_c q^c, and
moving zero-mode letters produces q-power constants, z-power shifts and
crossing signs.  A product of r terms has one G_ab per variable pair a < b,
and its order l moves l units of creation degree from z_b to z_a.  Mode
operators X_n are then read off exactly: applied to a Fock state, only
finitely many creation multisets and series orders can reach the required
z-powers, so the sum below every extraction is finite.  The series scalar
of a creation-degree vector d reached from the residue res depends only on
the vertex terms and on delta = d - res, so one flow table per vertex-term
tuple serves every residue.

Per-mode coefficients of the field exponentials (on normalized modes):

    kind    creation dhat_{-m}          annihilation             zero modes
    full    +eta q^{sm}                 -eta q^{-sn} fhat_n      eps += eta,
                                                                 sigma += eta s,
                                                                 tau += eta
    plus    (none)                      +eta (q-q^-1)[n] q^{-sn} fhat_n
                                        (a-family: raw, no [n])  sigma += eta
    minus   -eta (q-q^-1)[m] q^{sm}     (none)                   sigma -= eta

Cartan-family full fields never occur (no e^{Q_a} in any current), which is
what keeps the a-family annihilators raw and every coefficient in the ring.
Occupation updates, contractions, zero-mode q- and z-powers and crossing
signs come from oscillators.py, for fuse as for states; VTerm.ann_value is
the one place a term's annihilators meet a creation letter, for both the
state branches and the contraction series.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from operator import add, sub
from typing import NamedTuple

from .oscillators import (
    A_FAMS,
    FAMILIES,
    Q_SLOTS,
    ROOT,
    NODES,
    FockState,
    OscillatorAlgebra,
    add_term,
    cocycle_sign,
    momentum_eigen,
    occ_add,
    z_power,
)
from .ring import LinForm, RingElem, SymbolTable

_NQ = len(Q_SLOTS)
_Q_INDEX = {s: i for i, s in enumerate(Q_SLOTS)}
_ZERO_FORM = LinForm(0)


class FieldOcc(NamedTuple):
    fam: str
    kind: str  # full | plus | minus
    shift: LinForm  # s in d(q^s z), linear in the level
    eta: int


class VTerm:
    """One normal-ordered exponential term with its own z variable."""

    def __init__(self, alg: OscillatorAlgebra, const: RingElem, p0: int, occs, uid: int):
        self.alg = alg
        self.table = alg.table
        self.const = const
        self.p0 = p0
        self.occs = tuple(FieldOcc(*o) for o in occs)
        self.uid = uid

        eps = [0] * _NQ
        sigma = [_ZERO_FORM] * _NQ
        tau = [0] * _NQ
        sigma_a = [0] * len(A_FAMS)
        for fam, kind, shift, eta in self.occs:
            if kind not in ("full", "plus", "minus"):
                raise ValueError(f"unknown field kind {kind!r}")
            if fam in A_FAMS:
                if kind == "full":
                    raise ValueError("full Cartan fields are not supported")
                sigma_a[A_FAMS.index(fam)] += eta if kind == "plus" else -eta
            else:
                t = _Q_INDEX[fam]
                if kind == "full":
                    eps[t] += eta
                    sigma[t] = sigma[t] + shift * eta
                    tau[t] += eta
                elif kind == "plus":
                    sigma[t] = sigma[t] + LinForm(eta)
                else:
                    sigma[t] = sigma[t] - LinForm(eta)
        self.eps = tuple(eps)
        self.sigma = tuple(sigma)
        self.tau = tuple(tau)
        self.sigma_a = tuple(sigma_a)

        cre, ann = [], []
        for fam in FAMILIES:
            kinds = [o.kind for o in self.occs if o.fam == fam]
            if "full" in kinds or "minus" in kinds:
                cre.append(fam)
            if "full" in kinds or "plus" in kinds:
                ann.append(fam)
        self.cre_fams = tuple(cre)
        self.ann_fams = tuple(ann)
        self._cre_cache: dict = {}
        self._val_cache: dict = {}

    def cre_coeff(self, fam: str, m: int) -> RingElem:
        key = (fam, m)
        out = self._cre_cache.get(key)
        if out is None:
            T = self.table
            out = T.zero()
            for occ in self.occs:
                if occ.fam != fam:
                    continue
                if occ.kind == "full":
                    out = out + T.qpow(occ.shift * m) * occ.eta
                elif occ.kind == "minus":
                    out = out - T.qdiff() * T.qint(m) * T.qpow(occ.shift * m) * occ.eta
            self._cre_cache[key] = out
        return out

    def ann_coeff(self, fam: str, n: int) -> RingElem:
        T = self.table
        out = T.zero()
        for occ in self.occs:
            if occ.fam != fam:
                continue
            if occ.kind == "full":
                out = out - T.qpow(occ.shift * (-n)) * occ.eta
            elif occ.kind == "plus":
                c = T.qdiff() * T.qpow(occ.shift * (-n)) * occ.eta
                if fam not in A_FAMS:
                    c = c * T.qint(n)
                out = out + c
        return out

    def ann_value(self, fam: str, m: int) -> RingElem:
        """sum_af ann_coeff(af, m) [af_m, fam-hat_{-m}]: the scalar this
        term's annihilation exponential takes from one dhat_{-m} of fam."""
        key = (fam, m)
        out = self._val_cache.get(key)
        if out is None:
            out = self.table.zero()
            for af in self.ann_fams:
                con = self.alg.contract_hat(af, fam, m)
                if con.is_zero():
                    continue
                a = self.ann_coeff(af, m)
                if not a.is_zero():
                    out = out + a * con
            self._val_cache[key] = out
        return out


class FusedTerm:
    """A normal-ordered product of VTerms, one z variable per factor."""

    __slots__ = ("const", "p0s", "eps", "sigma", "sigma_a", "taus", "vterms", "uids", "uid")

    def __init__(self, const, p0s, eps, sigma, sigma_a, taus, vterms, uid):
        self.const = const
        self.p0s = p0s
        self.eps = eps
        self.sigma = sigma
        self.sigma_a = sigma_a
        self.taus = taus
        self.vterms = vterms
        self.uids = tuple(vt.uid for vt in vterms)  # keys the flow table
        self.uid = uid


class _FlowTable:
    """The residue-free flow table of one vertex-term tuple, filled lazily.

    entries holds (delta, scalar) for every nonzero delta >= -reach, in the
    lexicographic order of each delta's first order vector: the scalar sums
    the products of the series coefficients over every order vector that
    moves creation degree by delta, and does not depend on the residue.  A
    residue with no entry above reach finds all of its deltas here."""

    __slots__ = ("reach", "entries")

    def __init__(self):
        self.reach = -1
        self.entries = []


class VertexEngine:
    """Builds, fuses and extracts modes of vertex-operator terms.

    All caches are keyed by construction-order uids, so repeated runs over
    the same context produce identical results in identical order.
    """

    def __init__(self, alg: OscillatorAlgebra):
        self.alg = alg
        self.table = alg.table
        self._uids = itertools.count()
        self._singles: dict = {}
        self._vterms: dict = {}  # vt.uid -> VTerm, for resolving dkeys
        self._series: dict = {}  # (uidA, uidB) -> [C_l, l <= largest order asked]
        self._flowtabs: dict = {}  # vterm uids -> _FlowTable
        self._buckets: dict = {}  # (vt.uid, degree) -> [(delta occ, scalar)]
        # state -> {fused.uid: branch data}; the exact path asks for each
        # (state, fused term) about seven times (6,087 asks, 859 builds at
        # --energy-cut 1 --mode-window 1)
        self._branches: dict = {}
        # The state-independent parts of the branches, keyed by value:
        # (fused.uid, momenta) -> (prefactor, z-shifts, output momenta) and
        # (fused.uid, mode, multiplicity) -> that letter's options.
        self._heads: dict = {}
        self._letters: dict = {}
        # flows_map and bucket_product_key keep no cache: these two are the
        # exact path's (aggregate, extract_sum); bulk.py keeps its encodings.
        # The flow tables under both are shared.
        self._flowcache: dict = {}  # (fused.uid, res) -> flows_map(fused, res)
        self._prodcache: dict = {}  # dkey -> bucket_product_key(dkey)

    def make_vterm(self, const: RingElem, p0: int, occs) -> VTerm:
        vt = VTerm(self.alg, const, p0, occs, next(self._uids))
        self._vterms[vt.uid] = vt
        return vt

    def single(self, vt: VTerm) -> FusedTerm:
        f = self._singles.get(vt.uid)
        if f is None:
            f = FusedTerm(
                vt.const, (vt.p0,), vt.eps, vt.sigma, vt.sigma_a,
                (vt.tau,), (vt,), next(self._uids),
            )
            self._singles[vt.uid] = f
        return f

    def fuse(self, fused: FusedTerm, vt: VTerm) -> FusedTerm:
        """Normal-order fused * vt, vt owning the new rightmost variable.
        fused's zero-mode operators act on vt's word e^{eps Q} as on a state
        with momenta vt.eps: momentum_eigen gives the q-power, z_power each
        variable's z-shift and cocycle_sign the merge sign."""
        const = fused.const * vt.const * momentum_eigen(self.table, fused.sigma, (), vt.eps)
        if cocycle_sign(fused.eps, vt.eps) < 0:
            const = -const
        p0s = tuple(
            p0 + z_power(tau, vt.eps) for p0, tau in zip(fused.p0s, fused.taus)
        ) + (vt.p0,)
        eps = tuple(a + b for a, b in zip(fused.eps, vt.eps))
        sigma = tuple(a + b for a, b in zip(fused.sigma, vt.sigma))
        sigma_a = tuple(a + b for a, b in zip(fused.sigma_a, vt.sigma_a))
        return FusedTerm(
            const, p0s, eps, sigma, sigma_a,
            fused.taus + (vt.tau,), fused.vterms + (vt,), next(self._uids),
        )

    def _series_coeff(self, vtA: VTerm, vtB: VTerm, l: int) -> RingElem:
        """C_l of G_AB(x) = prod_c (1 - q^c x)^(-e_c), read off the first
        contraction order kappa_1 = sum_c e_c q^c of A's annihilators against
        B's creators: every order-n contraction is q^(c n) times n-free
        factors and one 1/n, so n kappa_n = sum_c e_c q^(c n)."""
        lst = self._series.get((vtA.uid, vtB.uid))
        if lst is None:
            lst = self._series[vtA.uid, vtB.uid] = [self.table.one()]  # C_0 = 1
        if len(lst) <= l:
            T = self.table
            kap = sum((vtA.ann_value(cf, 1) * vtB.cre_coeff(cf, 1) for cf in vtB.cre_fams),
                      T.zero()).canonical()
            # kappa_1 is a Laurent polynomial: the level bracket's (q - q^-1)
            # cancels its Cartan annihilator's; else its terms are no q^c
            if kap.dpow:
                raise ValueError(f"contraction kappa_1 = {kap} keeps a (q - q^-1) denominator")
            if kap.den != 1:
                raise ValueError(f"contraction kappa_1 = {kap} has a non-integer exponent e_c")
            lst = [T.one()] + [T.zero()] * l
            for c, e in kap.terms.items():
                # divide by 1 - q^c x (running sums), or multiply by it
                step = RingElem(T, {c: 1 if e > 0 else -1}, 0)
                orders = range(1, l + 1) if e > 0 else range(l, 0, -1)
                for _ in range(abs(e)):
                    for i in orders:
                        lst[i] = lst[i] + step * lst[i - 1]
            self._series[vtA.uid, vtB.uid] = lst
        return lst[l]

    def buckets(self, vt: VTerm, degree: int):
        """Creation multisets of total energy `degree` with their scalars
        prod coeff^mult / mult!.  State independent."""
        key = (vt.uid, degree)
        out = self._buckets.get(key)
        if out is not None:
            return out
        out = []
        modes = [(fam, m) for fam in vt.cre_fams for m in range(1, degree + 1)]

        def rec(idx, remaining, delta, scalar):
            if remaining == 0:
                out.append((tuple(delta), scalar))
                return
            if idx == len(modes):
                return
            fam, m = modes[idx]
            rec(idx + 1, remaining, delta, scalar)
            coeff = vt.cre_coeff(fam, m)
            if not coeff.is_zero():
                power = scalar
                mult = 1
                while m * mult <= remaining:
                    power = power * coeff
                    rec(
                        idx + 1,
                        remaining - m * mult,
                        delta + [((fam, m), mult)],
                        power * Fraction(1, factorial(mult)),
                    )
                    mult += 1

        rec(0, degree, [], self.table.one())
        self._buckets[key] = out
        return out

    def _merge_buckets(self, pairs):
        acc = [((), self.table.one())]
        for vt, d in pairs:
            part = self.buckets(vt, d)
            acc = [(occ_add(occ, delta), s * bscal) for occ, s in acc for delta, bscal in part]
            if not acc:
                break
        merged: dict = {}
        for occ, s in acc:
            prev = merged.get(occ)
            merged[occ] = s if prev is None else prev + s
        return [(k, s) for k, s in merged.items() if not s.is_zero()]

    def _state_branches(self, fused: FusedTerm, state: FockState, top: bool = False):
        """Annihilation branches of `fused` on `state`, scalars carrying the
        state-level prefactor; target independent.  Each branch is
        (scalar, annihilated energy per variable, its sum, occ_after).
        With top, only the branches that take every copy of every letter.
        The prefactor and each letter's options are built once per fused
        term and momenta, or letter and multiplicity."""
        r = len(fused.vterms)
        common, taueig, momenta = self._head(fused, state.momenta)
        letter_opts = []
        for mode, mult in state.occ:
            opts = self._letter(fused, mode, mult)
            letter_opts.append((mode, [o for o in opts if o[2] == -mult] if top else opts))
        branches = []
        for combo in itertools.product(*(opts for _, opts in letter_opts)):
            scalar = common
            annE = [0] * r
            taken = []
            for (mode, _), (s, ann_v, lost) in zip(letter_opts, combo):
                scalar = scalar * s
                for v in range(r):
                    annE[v] += ann_v[v]
                if lost:
                    taken.append((mode, lost))
            if not scalar.is_zero():
                branches.append((scalar, tuple(annE), sum(annE), occ_add(state.occ, taken)))

        return branches, taueig, momenta

    def _head(self, fused: FusedTerm, p):
        """fused's prefactor, z-shift per variable and output momenta on
        states of momenta p."""
        head = self._heads.get((fused.uid, p))
        if head is None:
            T = self.table
            common = fused.const * momentum_eigen(T, fused.sigma, fused.sigma_a, p)
            if cocycle_sign(fused.eps, p) < 0:
                common = -common
            head = self._heads[fused.uid, p] = (
                common, tuple(z_power(tau, p) for tau in fused.taus),
                tuple(m + e for m, e in zip(p, fused.eps)))
        return head

    def _letter(self, fused: FusedTerm, mode, mult: int) -> list:
        """The ways fused's variables annihilate some of mult copies of one
        creation letter: (scalar, annihilated energy per variable, minus
        the copies taken) each, the scalar a multinomial times the
        variables' annihilation values."""
        key = (fused.uid, mode, mult)
        opts = self._letters.get(key)
        if opts is None:
            T = self.table
            fam, m = mode
            r = len(fused.vterms)
            values = [vt.ann_value(fam, m) for vt in fused.vterms]
            live = [v for v in range(r) if not values[v].is_zero()]
            opts = self._letters[key] = []
            for js in itertools.product(*(range(mult + 1) if v in live else (0,) for v in range(r))):
                total = sum(js)
                if total > mult:
                    continue
                scalar = T.rational(
                    factorial(mult) // (factorial(mult - total) * prod(map(factorial, js))))
                for v in range(r):
                    for _ in range(js[v]):
                        scalar = scalar * values[v]
                opts.append((scalar, tuple(m * j for j in js), -total))
        return opts

    def branches(self, fused: FusedTerm, state: FockState):
        """The (branches, taueig, momenta) of fused on state, built once
        per (state, fused term) and cached."""
        cached = self._branches.setdefault(state, {})
        data = cached.get(fused.uid)
        if data is None:
            data = cached[fused.uid] = self._state_branches(fused, state)
        return data

    def top_branches(self, fused: FusedTerm, state: FockState):
        """branches, keeping only the top ones, which annihilate every
        letter of state (occ_after empty).  Not cached: the packed kernel
        reads each (state, fused term) once."""
        return self._state_branches(fused, state, top=True)

    def residues(self, jobs, state: FockState):
        """Every annihilation branch of every job on `state` that leaves a
        reachable residue: yields (fused, res, base, weight, momenta,
        occ_after) with res the z-powers the creation side and the
        contraction series still owe, sum(res) >= 0."""
        for fused, targets, weight in jobs:
            branches, taueig, momenta = self.branches(fused, state)
            off = tuple(map(sub, map(sub, targets, fused.p0s), taueig))
            need = -sum(off)
            for base, annE, ann_sum, occ_after in branches:
                if ann_sum >= need:
                    yield fused, tuple(map(add, off, annE)), base, weight, momenta, occ_after

    def flows_map(self, fused: FusedTerm, res):
        """Creation-degree multisets reachable from `res` with their summed
        series scalars, as (dkey, delta, scalar) triples, for any number of
        variables.

        Order l of pair a < b (coefficient C_l of G_ab) moves l units of
        creation degree from b to a, so an order vector takes res to
        d = res + delta with delta independent of res, and the scalar of d
        is the entry of delta in the flow table of fused's vertex terms.
        Every d >= 0 with a nonzero entry gives one triple, in table order:
        the order in which a walk from res meets them.

        A dkey is the sorted ((vterm uid, degree), ...) of the nonzero
        degrees; it ignores variable order, so permuted products of the
        same terms share creation buckets.  Not cached here."""
        vts = fused.vterms
        out = []
        for delta, s in self._flow_table(fused, res).entries:
            dvec = tuple(map(add, delta, res))
            if min(dvec) >= 0:
                out.append((tuple(sorted((vt.uid, d) for vt, d in zip(vts, dvec) if d)), delta, s))
        return tuple(out)

    def _flow_table(self, fused: FusedTerm, res) -> _FlowTable:
        """The flow table of fused's vertex terms, complete for res.  When
        max(res) passes the table's reach, the table is refilled from a walk
        from the residue (reach, ..., reach) with reach = max(res).  That
        walk meets every order vector of every delta >= -reach, which holds
        every delta res can reach, so each entry is complete; and it meets
        the deltas in the order of their first order vectors, which no
        residue changes, so a walk from res would meet the deltas it reaches
        in the table's order."""
        tab = self._flowtabs.get(fused.uids)
        if tab is None:
            tab = self._flowtabs[fused.uids] = _FlowTable()
        reach = max(res)
        if reach > tab.reach:
            r = len(res)
            pairs = [(a, b) for b in range(r - 1, 0, -1) for a in range(b - 1, -1, -1)]
            local: dict = {}
            self._walk_orders(fused.vterms, pairs, 0, [reach] * r, self.table.one(), local)
            tab.entries = [(tuple(d - reach for d in dvec), s)
                           for dvec, s in local.items() if not s.is_zero()]
            tab.reach = reach
        return tab

    def _walk_orders(self, vts, pairs, i, deg, scalar, local):
        """_flow_table's walk from pairs[i] on.  Pairs go b descending, then
        a descending, so every pair that feeds a variable comes before every
        pair that drains it; from degrees >= 0, l running up to b's degree
        keeps every degree >= 0 and reaches every order vector that ends
        with all degrees >= 0, in lexicographic order.  Sums the product of
        the series coefficients, in walk order, into local[degree vector]."""
        if i == len(pairs):
            dvec = tuple(deg)
            prev = local.get(dvec)
            local[dvec] = scalar if prev is None else prev + scalar
            return
        a, b = pairs[i]
        for l in range(deg[b] + 1):
            c = self._series_coeff(vts[a], vts[b], l)
            if c.is_zero():
                continue
            deg[a] += l
            deg[b] -= l
            self._walk_orders(vts, pairs, i + 1, deg, scalar * c, local)
            deg[a] -= l
            deg[b] += l

    def aggregate(self, jobs, state: FockState) -> dict:
        """Scalar prefactors of weighted extractions, summed per
        (momenta, leftover occupation, dkey).

        jobs: iterable of (fused, targets, weight or None).  Permuted
        factor orders land on the same key, so terms of a relation that
        cancel do so while still cheap, and a zero aggregate later skips
        its whole block of output states."""
        acc: dict = {}
        for fused, res, base, weight, momenta, occ_after in self.residues(jobs, state):
            flows = self._flowcache.get((fused.uid, res))
            if flows is None:
                flows = self._flowcache[fused.uid, res] = self.flows_map(fused, res)
            for dkey, _, ssum in flows:
                key = (momenta, occ_after, dkey)
                mid = base * ssum
                if weight is not None:
                    mid = mid * weight
                prev = acc.get(key)
                acc[key] = mid if prev is None else prev + mid
        return acc

    def bucket_product_key(self, dkey):
        """Creation buckets of all variables merged into one list of
        (occupation delta, scalar), for any dkey over this engine's vterms.
        Not cached here."""
        return self._merge_buckets((self._vterms[uid], d) for uid, d in dkey)

    def extract_sum(self, jobs, state: FockState) -> dict:
        """Sum of weighted mode extractions applied to one state.

        jobs: iterable of (fused, targets, weight or None)."""
        out: dict = {}
        for (momenta, occ_after, dkey), mid in self.aggregate(jobs, state).items():
            if mid.is_zero():
                continue
            part = self._prodcache.get(dkey)
            if part is None:
                part = self._prodcache[dkey] = self.bucket_product_key(dkey)
            for delta, pscal in part:
                coeff = mid * pscal
                if coeff.is_zero():
                    continue
                add_term(out, FockState(momenta, occ_add(occ_after, delta)), coeff)
        return out

    def extract(self, fused: FusedTerm, targets, state: FockState) -> dict:
        """The (z_0^targets[0] ... ) coefficient of fused applied to state,
        as a dict FockState -> RingElem."""
        return self.extract_sum(((fused, targets, None),), state)


def _lf(c=0, k=0) -> LinForm:
    c = Fraction(c)
    k = Fraction(k)
    return LinForm(c, {"k": k} if k else None)


# E^i and F^i carry the parity of node i; the psi currents are even
CURRENT_PARITY = {name: ROOT.gen_parity(i) if name[0] in "EF" else 0 for i in NODES
                  for name in (f"E{i}", f"F{i}", f"psi{i}+", f"psi{i}-")}


def default_e_values(table: SymbolTable) -> dict:
    return {name: table.monomial({name: 1}) for name in ("e11", "e12", "e21", "e22")}


def f_constants(table: SymbolTable, e_values: dict, overrides=None) -> dict:
    """The seven F-current constants forced by the E-current ones."""
    e11, e12 = e_values["e11"], e_values["e12"]
    e21, e22 = e_values["e21"], e_values["e22"]
    q = table.qpow(LinForm(1))
    out = {
        "f11": e11.inverse(),
        "f12": e12.inverse(),
        "f13": table.qpow(_lf(1, 1)) * e21 * (e11 * e22).inverse(),
        "f21": q * e21.inverse(),
        "f22": q * e12 * (e11 * e21).inverse(),
        "f23": e22.inverse(),
        "f24": e12 * (e11 * e22).inverse(),
    }
    if overrides:
        for name, value in overrides.items():
            if name not in out:
                raise ValueError(f"unknown F-constant {name!r}")
            out[name] = value
    return out


def make_currents(engine: VertexEngine, values: dict) -> dict:
    """All current terms, keyed by current name.

    `values` must hold ring elements for e11..e22 and f11..f24."""
    inv = engine.table.qdiff_inv()
    v = values
    mk = engine.make_vterm
    half = Fraction(1, 2)

    currents = {
        "E1": [
            mk(-v["e11"] * inv, -1, [
                ("b12", "plus", _lf(), 1),
                ("b12", "full", _lf(1), -1),
                ("c12", "full", _lf(1), -1),
            ]),
            mk(v["e12"] * inv, -1, [
                ("b12", "minus", _lf(), 1),
                ("b12", "full", _lf(-1), -1),
                ("c12", "full", _lf(-1), -1),
            ]),
        ],
        "E2": [
            mk(v["e21"], 0, [
                ("b12", "plus", _lf(1), -1),
                ("b13", "plus", _lf(1), -1),
                ("b23", "full", _lf(1), 1),
            ]),
            mk(v["e22"], 0, [
                ("b12", "full", _lf(), 1),
                ("c12", "full", _lf(), 1),
                ("b13", "full", _lf(), 1),
            ]),
        ],
        "F1": [
            mk(v["f11"] * inv, -1, [
                ("a1", "plus", _lf(half, half), 1),
                ("b12", "plus", _lf(2, 1), 1),
                ("b13", "plus", _lf(2, 1), 1),
                ("b23", "plus", _lf(1, 1), -1),
                ("b12", "full", _lf(1, 1), 1),
                ("c12", "full", _lf(1, 1), 1),
            ]),
            mk(-v["f12"] * inv, -1, [
                ("a1", "minus", _lf(-half, -half), 1),
                ("b12", "minus", _lf(-2, -1), 1),
                ("b13", "minus", _lf(-2, -1), 1),
                ("b23", "minus", _lf(-1, -1), -1),
                ("b12", "full", _lf(-1, -1), 1),
                ("c12", "full", _lf(-1, -1), 1),
            ]),
            # This term is defined with its two odd zero modes ordered
            # e^{Q_b23} e^{-Q_b13}; the Fock basis stores slots ascending,
            # and the two exponentials anticommute, hence the minus sign.
            mk(-v["f13"], 0, [
                ("a1", "plus", _lf(half, half), 1),
                ("b23", "plus", _lf(1, 1), -1),
                ("b13", "full", _lf(1, 1), -1),
                ("b23", "full", _lf(2, 1), 1),
            ]),
        ],
        "F2": [
            mk(v["f21"] * inv, -1, [
                ("a2", "plus", _lf(half, half), 1),
                ("b23", "full", _lf(1, 1), -1),
            ]),
            mk(-v["f22"] * inv, -1, [
                ("a2", "minus", _lf(-half, -half), 1),
                ("b23", "full", _lf(-1, -1), -1),
            ]),
            mk(-v["f23"] * inv, -1, [
                ("a2", "minus", _lf(-half, -half), 1),
                ("b12", "minus", _lf(-1, -1), -1),
                ("b13", "minus", _lf(-1, -1), -1),
                ("b12", "full", _lf(0, -1), -1),
                ("c12", "full", _lf(0, -1), -1),
                ("b13", "full", _lf(0, -1), -1),
            ]),
            mk(v["f24"] * inv, -1, [
                ("a2", "minus", _lf(-half, -half), 1),
                ("b12", "plus", _lf(-1, -1), -1),
                ("b13", "minus", _lf(-1, -1), -1),
                ("b12", "full", _lf(-2, -1), -1),
                ("c12", "full", _lf(-2, -1), -1),
                ("b13", "full", _lf(0, -1), -1),
            ]),
        ],
        "psi1+": [
            mk(engine.table.one(), 0, [
                ("a1", "plus", _lf(half, half), 1),
                ("b12", "plus", _lf(0, 1), 1),
                ("b12", "plus", _lf(2, 1), 1),
                ("b13", "plus", _lf(2, 1), 1),
                ("b23", "plus", _lf(1, 1), -1),
            ]),
        ],
        "psi1-": [
            mk(engine.table.one(), 0, [
                ("a1", "minus", _lf(-half, -half), 1),
                ("b12", "minus", _lf(0, -1), 1),
                ("b12", "minus", _lf(-2, -1), 1),
                ("b13", "minus", _lf(-2, -1), 1),
                ("b23", "minus", _lf(-1, -1), -1),
            ]),
        ],
        "psi2+": [
            mk(engine.table.one(), 0, [
                ("a2", "plus", _lf(half, half), 1),
                ("b12", "plus", _lf(1, 1), -1),
                ("b13", "plus", _lf(1, 1), -1),
            ]),
        ],
        "psi2-": [
            mk(engine.table.one(), 0, [
                ("a2", "minus", _lf(-half, -half), 1),
                ("b12", "minus", _lf(-1, -1), -1),
                ("b13", "minus", _lf(-1, -1), -1),
            ]),
        ],
    }
    return currents


def h_coeffs(table: SymbolTable, i: int, n: int) -> dict:
    """Coefficients of the raw oscillators inside the Cartan mode H^i_n."""
    if n == 0:
        raise ValueError("H zero modes are diagonal and handled via K")
    an = abs(n)
    half = table.qpow(LinForm(Fraction(-an, 2)))
    inner = table.qpow(LinForm(-an, {"k": Fraction(-an, 2)}))
    if i == 1:
        outer = table.qpow(LinForm(-2 * an, {"k": Fraction(-an, 2)}))
        osc = table.qpow(LinForm(an)) + table.qpow(LinForm(-an))
        return {"a1": half, "b12": inner * osc, "b13": outer, "b23": -inner}
    if i == 2:
        return {"a2": half, "b12": -inner, "b13": -inner}
    raise ValueError(f"no Cartan current with index {i}")
