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

Each of the two stages (the aggregate over residue blocks, then the
creation-bucket expansion of the surviving groups) is one segmented outer
product: a Python pass collects every block's cached arrays and per-block
integers, then one repeat/gather builds all of the stage's rows, so numpy's
per-call overhead is paid per stage, not per block.

Only stage A's weighted bases carry powers of (q - q^-1); one binomial
step settles the factors each row lacks.  Flow maps and bucket lists are
Laurent polynomials in q in the free-boson realization, so they are
encoded without a denominator power, and a scalar with one is refused.

Encodings are cached by value: a branch's weighted base per state (branch
index and weight value), a flow map per (fused uid, residue), a creation
bucket list per dkey.  The engine builds each flow map and bucket list
without caching it, so the encoding is the only copy a kernel run keeps.
Nothing is keyed by object identity, so no object is kept alive only to
pin its id, and a weight rebuilt with the same value for the next relation
hits.

Exactness is non-negotiable.  Every packing step is guarded: exponent
fields are range checked, values are numerators over one common
denominator with the largest possible absolute partial sum bounded below
2^62, and any violation raises BulkError before a single row is built.
Callers catch BulkError and fall back to the exact scalar path, so the
vectorized route either reproduces the RingElem result (the same value,
rendered identically) or declines to run.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from typing import NamedTuple

import numpy as np

from .oscillators import FockState, occ_add
from .ring import _HALF, _MASK, _SLOT_BITS, RingElem, _lowest

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
# The deficit counts the powers of (q - q^-1) a row's base lacks: rows are
# built at their base's power and the binomial expansion that equalizes
# them runs after the first merge, when almost everything has cancelled.
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
# _BINOM[d, j] = (-1)^j C(d, j): the expansion of (q - q^-1)^d.
_BINOM = np.asarray([[(-1) ** j * comb(d, j) for j in range(_DEF_MAX)]
                     for d in range(_DEF_MAX)], dtype=np.int64)


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
    """Several scalars stacked over one common denominator: a flow map (one
    entry per dkey, tagged with its id) or a merged creation bucket list
    (one entry per occupation delta).  Row i came from entry idx[i], tagged
    tags[idx[i]].  Neither kind carries a power of (q - q^-1)."""

    keys: np.ndarray
    vals: np.ndarray
    idx: np.ndarray
    tags: tuple
    denom: int
    smax: int
    gmax: int
    maxabs: int
    sumabs: int


def _stack(encs, tags) -> _Rows:
    """Concatenate encoded scalars, lifting each onto the lcm denominator."""
    denom = lcm(*(e.denom for e in encs))
    ups = [denom // e.denom for e in encs]
    sizes = [e.keys.size for e in encs]
    return _Rows(
        np.concatenate([e.keys for e in encs]),
        np.concatenate([e.vals * up for e, up in zip(encs, ups)]),
        np.repeat(np.arange(len(encs), dtype=np.int64), sizes),
        tuple(tags), denom,
        max(e.smax for e in encs), max(e.gmax for e in encs),
        max(e.maxabs * up for e, up in zip(encs, ups)),
        sum(e.sumabs * up for e, up in zip(encs, ups)),
    )


def _fit(left, right):
    """Guard one left x right product before any of its rows exist: both
    sides carry smax, gmax, denom, maxabs and sumabs.  Returns the rows'
    denominator with the largest absolute row value and the absolute sum
    of all rows, both over that denominator."""
    if left.smax + right.smax > _S_MASK or left.gmax + right.gmax > _G_MASK:
        raise BulkError("exponent field overflow")
    return (left.denom * right.denom, left.maxabs * right.maxabs,
            left.sumabs * right.sumabs)


def _stage_denom(fits, dpow: int = 0) -> int:
    """The common denominator of a stage's products, given the _fit of
    each.  Lifted onto it, every row value must fit int64 and the absolute
    sum of all rows must stay below 2^62; stage A settles up to dpow
    missing (q - q^-1) factors after its first merge, which grows that sum
    by at most 2^dpow."""
    denom = lcm(*(d for d, _, _ in fits))
    total = 0
    for d, maxabs, sumabs in fits:
        up = denom // d
        if maxabs * up >= _VAL_LIMIT:
            raise BulkError("row value overflow")
        total += sumabs * up
    if (total << dpow) >= _SUM_LIMIT:
        raise BulkError("stage sum bound exceeded")
    return denom


def _reduce(k, v):
    """Merge rows with equal keys; drops zero sums."""
    order = np.argsort(k)
    k = k[order]
    v = v[order]
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    sums = np.add.reduceat(v, starts)
    keep = sums != 0
    return k[starts][keep], sums[keep]


def _outer_blocks(lk, lv, ln, rk, rv, rn):
    """Segmented outer product, merged: block b pairs its ln[b] left rows
    with its rn[b] right rows (keys add, values multiply); rows of both
    sides are stored block after block.  Rows are built and reduced in
    pieces of at most _CHUNK rows, cut at block boundaries, so peak memory
    stays bounded while the final merge sees few arrays."""
    rep = np.repeat(rn, ln)  # right rows met by each left row
    rfirst = np.repeat(np.cumsum(rn) - rn, ln)
    sizes = ln * rn
    bend = np.cumsum(sizes)
    lend = np.cumsum(ln)
    parts = []
    b0 = 0
    while b0 < sizes.size:
        base = int(bend[b0] - sizes[b0])
        b1 = max(int(np.searchsorted(bend, base + _CHUNK, side="right")), b0 + 1)
        l0 = int(lend[b0] - ln[b0])
        l1 = int(lend[b1 - 1])
        r = rep[l0:l1]
        li = np.repeat(np.arange(l0, l1), r)
        rj = np.arange(int(bend[b1 - 1]) - base) + np.repeat(
            rfirst[l0:l1] - (np.cumsum(r) - r), r)
        parts.append(_reduce(lk[li] + rk[rj], lv[li] * rv[rj]))
        b0 = b1
    if len(parts) == 1:
        return parts[0]
    return _reduce(np.concatenate([p[0] for p in parts]),
                   np.concatenate([p[1] for p in parts]))


class BulkEngine:
    """Packed-row twin of VertexEngine.extract_sum for one symbol table:
    stage A is the packed aggregate, stage B the creation-bucket expansion.

    Fed by the engine's residues, whose branches the engine caches, and by
    its flow and bucket builders, which cache nothing; keeps the packed
    encodings of flows and buckets, keyed by value, and global state
    registries.  Entry point is combo_residual."""

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
        # state -> {(fused.uid, branch index, weight key): _Enc}, with the
        # weight key None or the weight's (tuple of terms, dpow)
        self._bases: dict = {}
        self._flow_cache: dict = {}  # (fused.uid, res) -> _Rows | None
        self._p_cache: dict = {}  # dkey -> _Rows | None
        self._occkeys: dict = {}  # (occ_after, dkey) -> bucket keys with occ ids
        self._deltas: dict = {}  # occupation delta -> the one tuple _p_cache tags hold
        # Registries, key -> dense id in insertion order: output occupations,
        # output momenta and the flow entries' dkeys.  A key whose id does
        # not fit its row field is refused whenever it is looked up.
        self._occ_ids: dict = {}
        self._mom_ids: dict = {}
        self._dkey_ids: dict = {}

    # -- scalar encoding -----------------------------------------------------

    def _enc(self, elem: RingElem) -> _Enc:
        """elem's numerators, over elem.den (q - q^-1)^elem.dpow, as parallel arrays."""
        items = list(elem.terms.items())
        if not items:
            raise BulkError("empty scalar")
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
            av = abs(c)
            if av >= _SUM_LIMIT:
                raise BulkError("numerator outside packed range")
            keys[i] = es | (eg << _A_G_SHIFT)
            vals[i] = c
            if es > smax:
                smax = es
            if eg > gmax:
                gmax = eg
            if av > maxabs:
                maxabs = av
            sumabs += av
        return _Enc(keys, vals, elem.den, meta, smax, gmax, maxabs, sumabs, elem.dpow)

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
                if ssum.dpow:
                    raise BulkError("denominator power above target")
                e = self._enc(ssum)
                if e.meta:
                    raise BulkError("flow scalar carries symbol content")
                encs.append(e)
            ids = self._dkey_ids
            rows = _stack(encs, [ids.setdefault(dkey, len(ids)) for dkey, _ in flows])
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
            encs = []
            for _, scal in part:
                if scal.dpow:
                    raise BulkError("denominator power above target")
                e = self._enc(scal)
                if e.meta:
                    raise BulkError("bucket scalar carries symbol content")
                encs.append(e)
            rows = _stack(encs, (self._deltas.setdefault(d, d) for d, _ in part))
            if rows.maxabs >= _SUM_LIMIT:
                raise BulkError("bucket numerator outside packed range")
        self._p_cache[dkey] = rows
        return rows

    def _occ_keys(self, occ_after, dkey, penc: _Rows):
        """penc's row keys with each row's output occupation id in place."""
        key = (occ_after, dkey)
        hit = self._occkeys.get(key)
        if hit is None:
            ids = []
            for delta in penc.tags:
                ids.append(self._occ_ids.setdefault(occ_add(occ_after, delta), len(self._occ_ids)))
                if ids[-1] >= _OCC_MAX:
                    raise BulkError("occupation registry full")
            occrows = np.asarray(ids, dtype=np.int64)[penc.idx]
            hit = penc.keys + (occrows << _B_OCC_SHIFT)
            self._occkeys[key] = hit
        return hit

    # -- the two passes -------------------------------------------------------

    def combo_residual(self, jobs, state: FockState) -> dict:
        """Sum of weighted mode extractions applied to one state, computed
        through packed rows.  Same contract as VertexEngine.extract_sum;
        raises BulkError instead of answering when any guard trips."""
        # One pass over the blocks (a job's branch with its flows) interns
        # sectors and meta ids and guards every product; group ids, the
        # stage denominator and the sum bound follow, and all of it has to
        # exist before any rows do.  Meta travels as a row field: rows of
        # one group may mix monomials (a degree-0 vertex term drops out of
        # the dkey but keeps its constant), and distinct monomials never
        # cancel, so the field costs nothing.
        sector_of: dict = {}  # (momentum id, occ_after) -> sector id
        metas: dict = {}
        pairs = []
        fits = []
        kadd = []  # per block key offset: meta id, less its power in the deficit field
        sectors = []  # per block
        tag_ids = []  # dkey id of every (block, flow entry)
        tag_off = []  # per block: its first entry in tag_ids
        bases = self._bases.setdefault(state, {})
        for job in jobs:
            weight = job[2]
            wkey = None if weight is None else (
                tuple(weight.terms.items()), weight.dpow, weight.den)
            for fused, res, i, base, _, momenta, occ_after in self.engine.residues((job,), state):
                fe = self._enc_flows(fused, res)
                if fe is None:
                    continue
                key = (fused.uid, i, wkey)
                be = bases.get(key)
                if be is None:
                    eff = base if weight is None else base * weight
                    be = bases[key] = self._enc(eff)
                momid = self._mom_ids.setdefault(momenta, len(self._mom_ids))
                if momid >= _MOM_MAX:
                    raise BulkError("momentum registry full")
                sectors.append(sector_of.setdefault((momid, occ_after), len(sector_of)))
                tag_off.append(len(tag_ids))
                tag_ids.extend(fe.tags)
                mid = metas.setdefault(be.meta, len(metas))
                if mid >= _META_MAX:
                    raise BulkError("meta registry full")
                kadd.append((mid << _B_META_SHIFT) - (be.dpow << _A_DEF_SHIFT))
                fits.append(_fit(be, fe))
                pairs.append((be, fe))
        if not pairs:
            return {}
        d_max = max(be.dpow for be, _ in pairs)
        if d_max - min(be.dpow for be, _ in pairs) >= _DEF_MAX:
            raise BulkError("denominator deficit outside packed range")
        denom_a = _stage_denom(fits, d_max)

        # A group is a (sector, dkey) pair; group ids follow their order.
        ln = np.asarray([be.keys.size for be, _ in pairs], dtype=np.int64)
        rn = np.asarray([fe.keys.size for _, fe in pairs], dtype=np.int64)
        ndk = len(self._dkey_ids)
        rtag = np.concatenate([fe.idx for _, fe in pairs]) + np.repeat(tag_off, rn)
        gkeys = np.repeat(sectors, rn) * ndk + np.asarray(tag_ids)[rtag]
        groups, row_gids = np.unique(gkeys, return_inverse=True)
        if groups.size > _GID_MAX:
            raise BulkError("group registry full")

        # All blocks in one segmented product.  A row's deficit is d_max
        # less its block's power; flow entries carry none.
        ups = [denom_a // d for d, _, _ in fits]
        akeys, avals = _outer_blocks(
            np.concatenate([be.keys for be, _ in pairs]) + np.repeat(kadd, ln)
            + (d_max << _A_DEF_SHIFT),
            np.concatenate([be.vals for be, _ in pairs]), ln,
            np.concatenate([fe.keys for _, fe in pairs]) + (row_gids << _A_GID_SHIFT),
            np.concatenate([fe.vals for _, fe in pairs]) * np.repeat(ups, rn), rn,
        )
        if akeys.size == 0:
            return {}

        # Settle the deficits now that the bulk of the rows has cancelled:
        # a row missing d powers of (q - q^-1) becomes its binomial spread,
        # d + 1 rows at s-shifts 2(d - 2j) with coefficients (-1)^j C(d, j).
        defs = (akeys >> _A_DEF_SHIFT) & (_DEF_MAX - 1)
        if defs.any():
            sf = akeys & _S_MASK
            if (sf + 2 * defs > _S_MASK).any() or (sf < 2 * defs).any():
                raise BulkError("exponent field overflow")
            li = np.repeat(np.arange(defs.size), defs + 1)
            d = defs[li]
            j = np.arange(li.size) - np.repeat(np.cumsum(defs + 1) - defs - 1, defs + 1)
            akeys, avals = _reduce(akeys[li] - (d << _A_DEF_SHIFT) + 2 * (d - 2 * j),
                                   avals[li] * _BINOM[d, j])
            if akeys.size == 0:
                return {}

        if ((akeys & _S_MASK) < _SB).any() or (((akeys >> _A_G_SHIFT) & _G_MASK) < _GB).any():
            raise BulkError("aggregate exponent below packed range")
        akeys = akeys - _REBIAS
        if (((akeys & _S_MASK) >> _SW) != 0).any():
            raise BulkError("aggregate exponent above packed range")
        if ((((akeys >> _A_G_SHIFT) & _G_MASK) >> _GW) != 0).any():
            raise BulkError("aggregate exponent above packed range")

        # Stage B runs the same two-pass shape over the surviving groups,
        # its guards fed by per-group reductions over the sorted rows.
        gids = akeys >> _A_GID_SHIFT
        starts = np.flatnonzero(np.concatenate(([True], gids[1:] != gids[:-1])))
        counts = np.diff(np.append(starts, gids.size))
        lo = akeys & _LO_MASK
        absv = np.abs(avals)
        sector_list = list(sector_of)
        dkeys = list(self._dkey_ids)
        groups = groups.tolist()
        stats = zip(
            gids[starts].tolist(),
            np.gcd.reduceat(absv, starts).tolist(),
            np.maximum.reduceat(lo & _S_MASK, starts).tolist(),
            np.maximum.reduceat((lo >> _A_G_SHIFT) & _G_MASK, starts).tolist(),
            np.maximum.reduceat(absv, starts).tolist(),
            np.add.reduceat(absv, starts).tolist(),
        )
        live = []  # per group: kept for stage B
        divs = []  # per live group: the common factor taken out of its values
        right = []
        fits = []
        for gid, gv, smax, gmax, maxabs, sumabs in stats:
            momid, occ_after = sector_list[groups[gid] // ndk]
            dkey = dkeys[groups[gid] % ndk]
            penc = self._enc_p(dkey)
            live.append(penc is not None)
            if penc is None:
                continue
            g = gcd(gv, denom_a)
            seg = _Enc(None, None, denom_a // g, 0, smax, gmax, maxabs // g, sumabs // g, d_max)
            fits.append(_fit(seg, penc))
            divs.append(g)
            right.append((self._occ_keys(occ_after, dkey, penc), penc, momid))
        if not right:
            return {}
        denom_b = _stage_denom(fits)

        live = np.asarray(live)
        rows = np.repeat(live, counts)
        ln = counts[live]
        rn = np.asarray([penc.keys.size for _, penc, _ in right], dtype=np.int64)
        mom_keys = [momid << _B_MOM_SHIFT for _, _, momid in right]
        ups = [denom_b // d for d, _, _ in fits]
        bkeys, bvals = _outer_blocks(
            lo[rows], avals[rows] // np.repeat(divs, ln), ln,
            np.concatenate([k for k, _, _ in right]) + np.repeat(mom_keys, rn),
            np.concatenate([penc.vals for _, penc, _ in right]) * np.repeat(ups, rn), rn,
        )
        if bkeys.size == 0:
            return {}

        # Nonzero residual: decode into exact elements for the witness.
        by_state: dict = {}
        occs, moms, meta_list = list(self._occ_ids), list(self._mom_ids), list(metas)
        for key, val in zip(bkeys.tolist(), bvals.tolist()):
            s_exp = (key & _S_MASK) - 2 * _SB
            g_exp = ((key >> _A_G_SHIFT) & _G_MASK) - 2 * _GB
            occ = occs[(key >> _B_OCC_SHIFT) & (_OCC_MAX - 1)]
            momenta = moms[key >> _B_MOM_SHIFT]
            rk = meta_list[(key >> _B_META_SHIFT) & (_META_MAX - 1)] + s_exp
            if self.g_slot is not None:
                rk += g_exp << _SLOT_BITS
            elif g_exp:
                raise BulkError("Gamma exponent without a Gamma slot")
            st = FockState(momenta, occ)
            by_state.setdefault(st, {})[rk] = val
        return {st: _lowest(self.table, terms, d_max, denom_b)
                for st, terms in by_state.items()}
