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
from typing import NamedTuple

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


class _Enc(NamedTuple):
    """One scalar as parallel arrays: biased low fields and numerators."""

    keys: np.ndarray
    vals: np.ndarray
    denom: int
    meta: int
    smax: int
    gmax: int
    maxabs: int
    sumabs: int
    dpow: int


class _Rows(NamedTuple):
    """Several scalars stacked over one common denominator: a flow map
    (one entry per dkey) or a merged creation bucket list (one entry per
    occupation delta).  Row i came from entry idx[i], tagged tags[idx[i]],
    at denominator power dpows[i]; dpow is the largest of them."""

    keys: np.ndarray
    vals: np.ndarray
    idx: np.ndarray
    dpows: np.ndarray
    tags: tuple
    denom: int
    dpow: int
    smax: int
    gmax: int
    maxabs: int
    sumabs: int


def _stack(encs, tags) -> _Rows:
    """Concatenate encoded scalars, lifting each onto the lcm denominator."""
    denom = lcm(*(e.denom for e in encs))
    ups = [denom // e.denom for e in encs]
    sizes = [e.keys.size for e in encs]
    dpows = [e.dpow for e in encs]
    return _Rows(
        np.concatenate([e.keys for e in encs]),
        np.concatenate([e.vals * up for e, up in zip(encs, ups)]),
        np.repeat(np.arange(len(encs), dtype=np.int64), sizes),
        np.repeat(np.asarray(dpows, dtype=np.int64), sizes),
        tuple(tags), denom, max(dpows),
        max(e.smax for e in encs), max(e.gmax for e in encs),
        max(e.maxabs * up for e, up in zip(encs, ups)),
        sum(e.sumabs * up for e, up in zip(encs, ups)),
    )


class _Bound:
    """One stage's common denominator and the bound on the absolute sum
    of all its row values, taken over the outer products of row sets
    before any row exists."""

    __slots__ = ("denom", "total")

    def __init__(self):
        self.denom = 1
        self.total = 0

    def add(self, left, right):
        """Count the rows of left x right; both carry smax, gmax, denom,
        maxabs and sumabs."""
        if left.smax + right.smax > _S_MASK or left.gmax + right.gmax > _G_MASK:
            raise BulkError("exponent field overflow")
        d = left.denom * right.denom
        up = d // gcd(self.denom, d)
        if up > 1:
            self.total *= up
            self.denom *= up
        part = self.denom // d
        if left.maxabs * right.maxabs * part >= _VAL_LIMIT:
            raise BulkError("row value overflow")
        self.total += left.sumabs * right.sumabs * part

    def check(self, dpow: int = 0):
        """Stage A settles up to dpow missing (q - q^-1) factors after its
        first merge, which grows the absolute sum by at most 2^dpow."""
        if (self.total << dpow) >= _SUM_LIMIT:
            raise BulkError("stage sum bound exceeded")


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

    def outer(self, lkeys, lvals, rkeys, rvals):
        """Every left row against every right row: keys add, values
        multiply."""
        keys = (lkeys[:, None] + rkeys[None, :]).ravel()
        self.keys.append(keys)
        self.vals.append((lvals[:, None] * rvals[None, :]).ravel())
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
    """Packed-row twin of VertexEngine.extract_sum for one symbol table:
    stage A is the packed aggregate, stage B the creation-bucket expansion.

    Fed by the engine's residues and dkeys, so branches, flows and buckets
    come from the engine's caches; adds its own encodings keyed by object
    identity (pinned, so ids stay unique) and global state registries.
    Entry point is combo_residual."""

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
        self._flow_cache: dict = {}  # (fused.uid, res) -> _Rows | None
        self._p_cache: dict = {}  # dkey -> _Rows | None
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
        rows = None
        if flows:
            encs = []
            for _, ssum in flows:
                e = self._enc_elem(ssum, ssum.dpow)
                if e.meta:
                    raise BulkError("flow scalar carries symbol content")
                encs.append(e)
            rows = _stack(encs, (dkey for dkey, _ in flows))
            if rows.maxabs >= _SUM_LIMIT:
                raise BulkError("flow numerator outside packed range")
        self._flow_cache[key] = rows
        return rows

    def _enc_p(self, dkey):
        hit = self._p_cache.get(dkey, _MISSING)
        if hit is not _MISSING:
            return hit
        part = self.engine.bucket_product_key(dkey)
        rows = None
        if part:
            dpow = max(s.dpow for _, s in part)
            encs = []
            for _, scal in part:
                e = self._enc_elem(scal, dpow)
                if e.meta:
                    raise BulkError("bucket scalar carries symbol content")
                encs.append(e)
            rows = _stack(encs, (delta for delta, _ in part))
            if rows.maxabs >= _SUM_LIMIT:
                raise BulkError("bucket numerator outside packed range")
        self._p_cache[dkey] = rows
        return rows

    def _occvec(self, occ_after, dkey, penc: _Rows):
        key = (occ_after, dkey)
        hit = self._occvecs.get(key)
        if hit is None:
            ids = []
            for delta in penc.tags:
                occ = dict(occ_after)
                for mode, mu in delta:
                    occ[mode] = occ.get(mode, 0) + mu
                ids.append(self._occ_id(tuple(sorted(occ.items()))))
            hit = np.asarray(ids, dtype=np.int64)[penc.idx]
            self._occvecs[key] = hit
        return hit

    # -- the two passes -------------------------------------------------------

    def combo_residual(self, jobs, state: FockState) -> dict:
        """Sum of weighted mode extractions applied to one state, computed
        through packed rows.  Same contract as VertexEngine.extract_sum;
        raises BulkError instead of answering when any guard trips."""
        blocks = []
        d_max = 0
        for fused, res, base, weight, momenta, occ_after in self.engine.residues(jobs, state):
            fe = self._enc_flows(fused, res)
            if fe is None:
                continue
            eff = base if weight is None else self._weighted(base, weight)
            blocks.append((eff, fe, self._mom_id(momenta), occ_after))
            d_max = max(d_max, eff.dpow + fe.dpow)
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
        stage_a = _Bound()
        for eff, fe, momid, occ_after in blocks:
            be = self._enc_elem(eff, eff.dpow)
            if d_max - be.dpow >= _DEF_MAX:
                raise BulkError("denominator deficit outside packed range")
            gids = []
            for dkey in fe.tags:
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
            stage_a.add(be, fe)
            encoded.append((be, fe, np.asarray(gids, dtype=np.int64), mid))
        stage_a.check(d_max)

        pool = _Pool()
        for be, fe, gid_arr, mid in encoded:
            defs = (d_max - be.dpow) - fe.dpows
            pool.outer(
                be.keys + (mid << _B_META_SHIFT), be.vals,
                fe.keys + (gid_arr[fe.idx] << _A_GID_SHIFT) + (defs << _A_DEF_SHIFT),
                fe.vals * (stage_a.denom // (be.denom * fe.denom)),
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
        starts = np.flatnonzero(np.concatenate(([True], gids[1:] != gids[:-1])))
        ends = np.append(starts[1:], gids.size)

        # Stage B runs the same two-pass shape over the surviving groups:
        # denominators and bounds first, rows second.
        live = []
        stage_b = _Bound()
        p_dpow = None
        for s, e in zip(starts, ends):
            momid, occ_after, dkey = group_info[int(gids[s])]
            penc = self._enc_p(dkey)
            if penc is None:
                continue
            if p_dpow is None:
                p_dpow = penc.dpow
            elif penc.dpow != p_dpow:
                raise BulkError("mixed denominator powers across groups")
            seg_keys = akeys[s:e] & _LO_MASK
            seg_vals = avals[s:e]
            g = gcd(int(np.gcd.reduce(np.abs(seg_vals))), stage_a.denom)
            if g > 1:
                seg_vals = seg_vals // g
            absv = np.abs(seg_vals)
            seg = _Enc(
                seg_keys, seg_vals, stage_a.denom // g, 0,
                int((seg_keys & _S_MASK).max()),
                int(((seg_keys >> _A_G_SHIFT) & _G_MASK).max()),
                int(absv.max()), int(absv.sum()), d_max,
            )
            stage_b.add(seg, penc)
            live.append((seg, momid, occ_after, dkey, penc))
        stage_b.check()
        if not live:
            return {}

        pool = _Pool()
        for seg, momid, occ_after, dkey, penc in live:
            occrows = self._occvec(occ_after, dkey, penc)
            pool.outer(
                seg.keys, seg.vals,
                penc.keys + (occrows << _B_OCC_SHIFT) + (momid << _B_MOM_SHIFT),
                penc.vals * (stage_b.denom // (seg.denom * penc.denom)),
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
            by_state.setdefault(st, {})[rk] = Fraction(val, stage_b.denom)
        return {st: RingElem(self.table, terms, dpow_out)
                for st, terms in by_state.items()}
