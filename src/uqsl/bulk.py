"""Vectorized expansion of joint mode extractions.

The exact engine spends nearly all of its time multiplying sparse Laurent
polynomials whose exponents occupy a few bits and whose rational
coefficients share small denominators.  This module reruns the same
expansion with every term packed into one int64: exponents of q^(1/2) and
Gamma in low bit fields, the remaining symbol content interned as an
opaque monomial id, and the output Fock state interned likewise.  Cross
products become numpy outer products and cancellation becomes one sort
plus a segmented sum, which is where the savings come from: the work is
identical, term for term, to the RingElem pipeline.

Exactness is non-negotiable.  Every packing step is guarded: exponent
fields are range checked, values are numerators over one common
denominator with the largest possible absolute partial sum bounded below
2^62, and any violation raises BulkError before a single row is built.
Callers catch BulkError and fall back to the exact scalar path, so the
vectorized route either reproduces the RingElem result bit for bit or
declines to run.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .oscillators import FockState
from .ring import _HALF, _MASK, _SLOT_BITS, RingElem, _mul_by_qdiff

# One side of a product: s biased by 2^12, Gamma by 2^11.  Sums of two
# sides then need 14 and 13 bits.
_SB = 1 << 12
_GB = 1 << 11
_SW = 13
_GW = 12
_SF = 14
_GF = 13
_S_MASK = (1 << _SF) - 1
_G_MASK = (1 << _GF) - 1

# Stage A row: s [0,14) | G [14,27) | meta [27,35) | deficit [35,39) | gid [39,59).
# Stage B row: s [0,14) | G [14,27) | meta [27,35) | occ [35,53) | mom [53,63).
# The deficit counts missing powers of (q - q^-1): rows are built at their
# natural denominator power and the binomial expansion that equalizes them
# runs after the first merge, when almost everything has already cancelled.
_A_G_SHIFT = _SF
_B_META_SHIFT = _SF + _GF
_META_MAX = 1 << 8
_A_DEF_SHIFT = _B_META_SHIFT + 8
_DEF_MAX = 16
_A_GID_SHIFT = _A_DEF_SHIFT + 4
_GID_MAX = 1 << 20
_LO_MASK = (1 << _A_DEF_SHIFT) - 1
_REBIAS = _SB | (_GB << _A_G_SHIFT)
_B_OCC_SHIFT = 35
_OCC_MAX = 1 << 18
_B_MOM_SHIFT = 53
_MOM_MAX = 1 << 10

_SUM_LIMIT = 1 << 62
_VAL_LIMIT = 1 << 63
_CHUNK = 1 << 22

_MISSING = object()


class BulkError(Exception):
    """A value or exponent fell outside the packed ranges."""


class _Enc:
    """One scalar as parallel arrays: biased low fields and numerators."""

    __slots__ = ("keys", "vals", "denom", "meta", "smax", "gmax",
                 "maxabs", "sumabs", "dpow")

    def __init__(self, keys, vals, denom, meta, smax, gmax, maxabs, sumabs, dpow):
        self.keys = keys
        self.vals = vals
        self.denom = denom
        self.meta = meta
        self.smax = smax
        self.gmax = gmax
        self.maxabs = maxabs
        self.sumabs = sumabs
        self.dpow = dpow


class _FlowEnc:
    """All flow scalars of one (fused, residue) concatenated, with the
    creation-degree multiset of each row resolved through dvec_idx and
    the denominator power of each row kept alongside."""

    __slots__ = ("keys", "vals", "dvec_idx", "denom", "dkeys", "dpows",
                 "dmax", "smax", "gmax", "maxabs", "sumabs")

    def __init__(self, keys, vals, dvec_idx, denom, dkeys, dpows, dmax,
                 smax, gmax, maxabs, sumabs):
        self.keys = keys
        self.vals = vals
        self.dvec_idx = dvec_idx
        self.denom = denom
        self.dkeys = dkeys
        self.dpows = dpows
        self.dmax = dmax
        self.smax = smax
        self.gmax = gmax
        self.maxabs = maxabs
        self.sumabs = sumabs


class _PEnc:
    """A merged creation bucket list as rows, one entry id per row."""

    __slots__ = ("keys", "vals", "entry_idx", "denom", "dpow", "deltas",
                 "smax", "gmax", "maxabs", "sumabs")

    def __init__(self, keys, vals, entry_idx, denom, dpow, deltas,
                 smax, gmax, maxabs, sumabs):
        self.keys = keys
        self.vals = vals
        self.entry_idx = entry_idx
        self.denom = denom
        self.dpow = dpow
        self.deltas = deltas
        self.smax = smax
        self.gmax = gmax
        self.maxabs = maxabs
        self.sumabs = sumabs


def _reduce(keys_list, vals_list):
    """Merge rows with equal keys; drops zero sums."""
    k = np.concatenate(keys_list)
    v = np.concatenate(vals_list)
    order = np.argsort(k)
    k = k[order]
    v = v[order]
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    sums = np.add.reduceat(v, starts)
    keep = sums != 0
    return k[starts][keep], sums[keep]


class _Pool:
    """Chunked accumulator: rows are reduced whenever the buffer fills,
    so peak memory stays bounded while the final merge sees few arrays."""

    __slots__ = ("keys", "vals", "rows", "parts")

    def __init__(self):
        self.keys = []
        self.vals = []
        self.rows = 0
        self.parts = []

    def add(self, keys, vals):
        self.keys.append(keys)
        self.vals.append(vals)
        self.rows += keys.size
        if self.rows >= _CHUNK:
            self.flush()

    def flush(self):
        if self.rows:
            self.parts.append(_reduce(self.keys, self.vals))
            self.keys = []
            self.vals = []
            self.rows = 0

    def final(self):
        self.flush()
        if not self.parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if len(self.parts) == 1:
            return self.parts[0]
        return _reduce([p[0] for p in self.parts], [p[1] for p in self.parts])


class BulkEngine:
    """Packed-row twin of VertexEngine.extract_sum for one symbol table.

    Shares the engine's branch, flow and bucket caches; adds its own
    encodings keyed by object identity (pinned, so ids stay unique) and
    global state registries.  Entry point is combo_residual."""

    def __init__(self, engine):
        self.engine = engine
        self.table = engine.table
        self.g_slot = self.table._index.get("G")
        if self.g_slot not in (None, 1):
            raise BulkError("Gamma must sit in slot 1")
        if self.g_slot is None:
            self._off = _HALF
            self._span = _SLOT_BITS
        else:
            self._off = _HALF | (_HALF << _SLOT_BITS)
            self._span = 2 * _SLOT_BITS
        self._elem_cache: dict = {}  # (id(elem), dtarget) -> _Enc
        self._pins: dict = {}  # id -> object, keeps ids unique
        self._wprod: dict = {}  # (id(base), id(weight)) -> RingElem
        self._flow_cache: dict = {}  # (fused.uid, res) -> _FlowEnc | None
        self._p_cache: dict = {}  # dkey -> _PEnc | None
        self._dpairs: dict = {}  # dkey -> ((vterm, degree), ...)
        self._occ_ids: dict = {}
        self._occ_list: list = []
        self._mom_ids: dict = {}
        self._mom_list: list = []
        self._occvecs: dict = {}  # (occ_after, dkey) -> per-row occ ids

    # -- interning ---------------------------------------------------------

    def _mom_id(self, momenta) -> int:
        mid = self._mom_ids.get(momenta)
        if mid is None:
            mid = len(self._mom_list)
            if mid >= _MOM_MAX:
                raise BulkError("momentum registry full")
            self._mom_ids[momenta] = mid
            self._mom_list.append(momenta)
        return mid

    def _occ_id(self, occ) -> int:
        oid = self._occ_ids.get(occ)
        if oid is None:
            oid = len(self._occ_list)
            if oid >= _OCC_MAX:
                raise BulkError("occupation registry full")
            self._occ_ids[occ] = oid
            self._occ_list.append(occ)
        return oid

    # -- scalar encoding -----------------------------------------------------

    def _enc_terms(self, terms: dict, dpow: int) -> _Enc:
        items = list(terms.items())
        if not items:
            raise BulkError("empty scalar")
        denom = 1
        for _, c in items:
            denom = lcm(denom, c.denominator)
        k0 = items[0][0]
        vec = self.table._exp_vector(k0)
        meta = k0 - vec[0]
        if self.g_slot is not None:
            meta -= vec[1] << _SLOT_BITS
        n = len(items)
        keys = np.empty(n, dtype=np.int64)
        vals = np.empty(n, dtype=np.int64)
        smax = gmax = 0
        maxabs = sumabs = 0
        for i, (k, c) in enumerate(items):
            r = (k - meta) + self._off
            if r >> self._span:
                raise BulkError("mixed symbol content in one scalar")
            es = (r & _MASK) - _HALF + _SB
            if self.g_slot is not None:
                eg = ((r >> _SLOT_BITS) & _MASK) - _HALF + _GB
            else:
                eg = _GB
            if not (0 <= es < (1 << _SW) and 0 <= eg < (1 << _GW)):
                raise BulkError("exponent outside packed range")
            v = c.numerator * (denom // c.denominator)
            av = abs(v)
            if av >= _SUM_LIMIT:
                raise BulkError("numerator outside packed range")
            keys[i] = es | (eg << _A_G_SHIFT)
            vals[i] = v
            if es > smax:
                smax = es
            if eg > gmax:
                gmax = eg
            if av > maxabs:
                maxabs = av
            sumabs += av
        return _Enc(keys, vals, denom, meta, smax, gmax, maxabs, sumabs, dpow)

    def _enc_elem(self, elem: RingElem, dtarget: int) -> _Enc:
        key = (id(elem), dtarget)
        hit = self._elem_cache.get(key)
        if hit is not None:
            return hit
        self._pins[id(elem)] = elem
        if elem.dpow > dtarget:
            raise BulkError("denominator power above target")
        terms = elem.terms
        if elem.dpow < dtarget:
            terms = _mul_by_qdiff(terms, dtarget - elem.dpow)
        enc = self._enc_terms(terms, dtarget)
        self._elem_cache[key] = enc
        return enc

    def _weighted(self, base: RingElem, weight: RingElem) -> RingElem:
        key = (id(base), id(weight))
        hit = self._wprod.get(key)
        if hit is None:
            self._pins[id(base)] = base
            self._pins[id(weight)] = weight
            hit = base * weight
            self._wprod[key] = hit
        return hit

    # -- structure encoding ---------------------------------------------------

    def _enc_flows(self, fused, res):
        key = (fused.uid, res)
        hit = self._flow_cache.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        flows = self.engine.flows_map(fused, res)
        if not flows:
            self._flow_cache[key] = None
            return None
        vterms = fused.vterms
        encs = []
        dkeys = []
        denom = 1
        for dvec, ssum in flows:
            e = self._enc_elem(ssum, ssum.dpow)
            if e.meta:
                raise BulkError("flow scalar carries symbol content")
            encs.append(e)
            denom = lcm(denom, e.denom)
            dpairs = tuple(sorted(
                ((vt, d) for vt, d in zip(vterms, dvec) if d),
                key=lambda p: (p[0].uid, p[1]),
            ))
            dkey = tuple((vt.uid, d) for vt, d in dpairs)
            self._dpairs.setdefault(dkey, dpairs)
            dkeys.append(dkey)
        sizes = [e.keys.size for e in encs]
        keys = np.concatenate([e.keys for e in encs])
        vals = np.concatenate([
            e.vals * (denom // e.denom) for e in encs
        ])
        dvec_idx = np.repeat(np.arange(len(encs), dtype=np.int64), sizes)
        dpows = np.repeat(
            np.asarray([e.dpow for e in encs], dtype=np.int64), sizes
        )
        smax = max(e.smax for e in encs)
        gmax = max(e.gmax for e in encs)
        maxabs = max(e.maxabs * (denom // e.denom) for e in encs)
        sumabs = sum(e.sumabs * (denom // e.denom) for e in encs)
        if maxabs >= _SUM_LIMIT:
            raise BulkError("flow numerator outside packed range")
        enc = _FlowEnc(keys, vals, dvec_idx, denom, tuple(dkeys), dpows,
                       max(e.dpow for e in encs), smax, gmax, maxabs, sumabs)
        self._flow_cache[key] = enc
        return enc

    def _enc_p(self, dkey):
        hit = self._p_cache.get(dkey, _MISSING)
        if hit is not _MISSING:
            return hit
        part = self.engine.bucket_product_key(dkey, self._dpairs[dkey])
        if not part:
            self._p_cache[dkey] = None
            return None
        dpow = max(s.dpow for _, s in part)
        encs = []
        deltas = []
        denom = 1
        for delta, scal in part:
            e = self._enc_elem(scal, dpow)
            if e.meta:
                raise BulkError("bucket scalar carries symbol content")
            encs.append(e)
            deltas.append(delta)
            denom = lcm(denom, e.denom)
        keys = np.concatenate([e.keys for e in encs])
        vals = np.concatenate([e.vals * (denom // e.denom) for e in encs])
        entry_idx = np.repeat(
            np.arange(len(encs), dtype=np.int64),
            [e.keys.size for e in encs],
        )
        smax = max(e.smax for e in encs)
        gmax = max(e.gmax for e in encs)
        maxabs = max(e.maxabs * (denom // e.denom) for e in encs)
        sumabs = sum(e.sumabs * (denom // e.denom) for e in encs)
        if maxabs >= _SUM_LIMIT:
            raise BulkError("bucket numerator outside packed range")
        enc = _PEnc(keys, vals, entry_idx, denom, dpow, tuple(deltas),
                    smax, gmax, maxabs, sumabs)
        self._p_cache[dkey] = enc
        return enc

    def _occvec(self, occ_after, dkey, penc: _PEnc):
        key = (occ_after, dkey)
        hit = self._occvecs.get(key)
        if hit is None:
            ids = []
            for delta in penc.deltas:
                occ = dict(occ_after)
                for mode, mu in delta:
                    occ[mode] = occ.get(mode, 0) + mu
                ids.append(self._occ_id(tuple(sorted(occ.items()))))
            hit = np.asarray(ids, dtype=np.int64)[penc.entry_idx]
            self._occvecs[key] = hit
        return hit

    # -- the two passes -------------------------------------------------------

    def combo_residual(self, jobs, state: FockState) -> dict:
        """Sum of weighted mode extractions applied to one state, computed
        through packed rows.  Same contract as VertexEngine.extract_sum;
        raises BulkError instead of answering when any guard trips."""
        eng = self.engine

        blocks = []
        d_max = 0
        for fused, targets, weight in jobs:
            branches, taueig, momenta = eng._state_branches(fused, state)
            if not branches:
                continue
            r = len(fused.vterms)
            momid = self._mom_id(momenta)
            for base, annE, occ_after in branches:
                res = tuple(
                    targets[v] - fused.p0s[v] - taueig[v] + annE[v]
                    for v in range(r)
                )
                if sum(res) < 0:
                    continue
                fe = self._enc_flows(fused, res)
                if fe is None:
                    continue
                eff = base if weight is None else self._weighted(base, weight)
                blocks.append((eff, fe, momid, occ_after))
                d = eff.dpow + fe.dmax
                if d > d_max:
                    d_max = d
        if not blocks:
            return {}

        # Group ids, meta ids, the stage denominator and the sum bound all
        # have to exist before any rows do.  Meta travels as a row field:
        # rows of one group may mix monomials (a degree-0 vertex term drops
        # out of the dkey but keeps its constant), and distinct monomials
        # never cancel, so the field costs nothing.
        gid_of: dict = {}
        group_info: list = []
        metas: dict = {}
        meta_list: list = []
        encoded = []
        denom_a = 1
        total = 0
        for eff, fe, momid, occ_after in blocks:
            be = self._enc_elem(eff, eff.dpow)
            if d_max - be.dpow >= _DEF_MAX:
                raise BulkError("denominator deficit outside packed range")
            gids = []
            for dkey in fe.dkeys:
                gk = (momid, occ_after, dkey)
                gid = gid_of.get(gk)
                if gid is None:
                    gid = len(group_info)
                    if gid >= _GID_MAX:
                        raise BulkError("group registry full")
                    gid_of[gk] = gid
                    group_info.append(gk)
                gids.append(gid)
            mid = metas.get(be.meta)
            if mid is None:
                mid = len(meta_list)
                if mid >= _META_MAX:
                    raise BulkError("meta registry full")
                metas[be.meta] = mid
                meta_list.append(be.meta)
            if be.smax + fe.smax > _S_MASK or be.gmax + fe.gmax > _G_MASK:
                raise BulkError("exponent field overflow")
            d = be.denom * fe.denom
            up = d // gcd(denom_a, d)
            if up > 1:
                total *= up
                denom_a *= up
            part = denom_a // d
            if be.maxabs * fe.maxabs * part >= _VAL_LIMIT:
                raise BulkError("row value overflow")
            total += be.sumabs * fe.sumabs * part
            encoded.append((be, np.asarray(gids, dtype=np.int64), mid))
        if (total << d_max) >= _SUM_LIMIT:
            raise BulkError("stage sum bound exceeded")

        pool = _Pool()
        for (eff, fe, momid, occ_after), (be, gid_arr, mid) in zip(blocks, encoded):
            scale = denom_a // (be.denom * fe.denom)
            defs = (d_max - be.dpow) - fe.dpows
            fk = (
                fe.keys
                + (gid_arr[fe.dvec_idx] << _A_GID_SHIFT)
                + (defs << _A_DEF_SHIFT)
            )
            fv = fe.vals * scale
            pool.add(
                ((be.keys + (mid << _B_META_SHIFT))[:, None] + fk[None, :]).ravel(),
                (be.vals[:, None] * fv[None, :]).ravel(),
            )
        akeys, avals = pool.final()
        if akeys.size == 0:
            return {}

        # Settle the deficits now that the bulk of the rows has cancelled:
        # each missing (q - q^-1) power becomes its binomial spread.
        defs = (akeys >> _A_DEF_SHIFT) & (_DEF_MAX - 1)
        if defs.any():
            parts_k = []
            parts_v = []
            for delta in np.unique(defs).tolist():
                rows = defs == delta
                k = akeys[rows] - (delta << _A_DEF_SHIFT)
                v = avals[rows]
                if delta == 0:
                    parts_k.append(k)
                    parts_v.append(v)
                    continue
                sf = k & _S_MASK
                if int(sf.max()) + 2 * delta > _S_MASK or int(sf.min()) < 2 * delta:
                    raise BulkError("exponent field overflow")
                shifts = np.asarray(
                    [2 * (delta - 2 * j) for j in range(delta + 1)], dtype=np.int64)
                coeffs = np.asarray(
                    [(-1) ** j * comb(delta, j) for j in range(delta + 1)],
                    dtype=np.int64)
                parts_k.append((k[:, None] + shifts[None, :]).ravel())
                parts_v.append((v[:, None] * coeffs[None, :]).ravel())
            akeys, avals = _reduce(parts_k, parts_v)
            if akeys.size == 0:
                return {}

        if ((akeys & _S_MASK) < _SB).any() or (((akeys >> _A_G_SHIFT) & _G_MASK) < _GB).any():
            raise BulkError("aggregate exponent below packed range")
        akeys = akeys - _REBIAS
        if (((akeys & _S_MASK) >> _SW) != 0).any():
            raise BulkError("aggregate exponent above packed range")
        if ((((akeys >> _A_G_SHIFT) & _G_MASK) >> _GW) != 0).any():
            raise BulkError("aggregate exponent above packed range")

        gids = akeys >> _A_GID_SHIFT
        bounds = np.flatnonzero(np.concatenate(([True], gids[1:] != gids[:-1])))
        ends = np.append(bounds[1:], gids.size)

        # Stage B runs the same two-pass shape over the surviving groups:
        # denominators and bounds first, rows second.
        live = []
        denom_b = 1
        total = 0
        p_dpow = None
        for s, e in zip(bounds, ends):
            gid = int(gids[s])
            momid, occ_after, dkey = group_info[gid]
            penc = self._enc_p(dkey)
            if penc is None:
                continue
            if p_dpow is None:
                p_dpow = penc.dpow
            elif penc.dpow != p_dpow:
                raise BulkError("mixed denominator powers across groups")
            seg_keys = akeys[s:e] & _LO_MASK
            seg_vals = avals[s:e]
            g = gcd(int(np.gcd.reduce(np.abs(seg_vals))), denom_a)
            if g > 1:
                seg_vals = seg_vals // g
            den = denom_a // g
            smax = int((seg_keys & _S_MASK).max())
            gmax = int(((seg_keys >> _A_G_SHIFT) & _G_MASK).max())
            if smax + penc.smax > _S_MASK or gmax + penc.gmax > _G_MASK:
                raise BulkError("exponent field overflow")
            maxabs = int(np.abs(seg_vals).max())
            sumabs = int(np.abs(seg_vals).sum())
            d = den * penc.denom
            up = d // gcd(denom_b, d)
            if up > 1:
                total *= up
                denom_b *= up
            part = denom_b // d
            if maxabs * penc.maxabs * part >= _VAL_LIMIT:
                raise BulkError("row value overflow")
            total += sumabs * penc.sumabs * part
            live.append((seg_keys, seg_vals, den, momid, occ_after, dkey, penc))
        if total >= _SUM_LIMIT:
            raise BulkError("stage sum bound exceeded")
        if not live:
            return {}

        pool = _Pool()
        for seg_keys, seg_vals, den, momid, occ_after, dkey, penc in live:
            scale = denom_b // (den * penc.denom)
            occrows = self._occvec(occ_after, dkey, penc)
            pk = penc.keys + (occrows << _B_OCC_SHIFT) + (momid << _B_MOM_SHIFT)
            pv = penc.vals * scale
            pool.add(
                (seg_keys[:, None] + pk[None, :]).ravel(),
                (seg_vals[:, None] * pv[None, :]).ravel(),
            )
        bkeys, bvals = pool.final()
        if bkeys.size == 0:
            return {}

        # Nonzero residual: decode into exact elements for the witness.
        dpow_out = d_max + p_dpow
        by_state: dict = {}
        for key, val in zip(bkeys.tolist(), bvals.tolist()):
            s_exp = (key & _S_MASK) - 2 * _SB
            g_exp = ((key >> _A_G_SHIFT) & _G_MASK) - 2 * _GB
            occ = self._occ_list[(key >> _B_OCC_SHIFT) & (_OCC_MAX - 1)]
            momenta = self._mom_list[key >> _B_MOM_SHIFT]
            rk = meta_list[(key >> _B_META_SHIFT) & (_META_MAX - 1)] + s_exp
            if self.g_slot is not None:
                rk += g_exp << _SLOT_BITS
            elif g_exp:
                raise BulkError("Gamma exponent without a Gamma slot")
            st = FockState(momenta, occ)
            by_state.setdefault(st, {})[rk] = Fraction(val, denom_b)
        return {st: RingElem(self.table, terms, dpow_out)
                for st, terms in by_state.items()}
