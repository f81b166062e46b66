"""Vectorized zero test of joint mode extractions.

The exact engine spends nearly all of its time multiplying sparse Laurent
polynomials whose exponents occupy a few bits and whose rational
coefficients share small denominators.  This module reruns the same
expansion with every term packed into one int64: exponents of q^(1/2) and
Gamma in low bit fields, the remaining symbol content interned as an
opaque monomial id, and the output Fock state interned likewise.  Cross
products become numpy outer products and cancellation becomes one sort
plus a segmented sum, which is where the savings come from: the work is
identical, term for term, to the RingElem pipeline.  A relation that holds
leaves no row, so the kernel's one job is to certify that; it never turns
a row back into a RingElem.

One call per family and state.  combo_residual takes every instance of a
relation family on one state at once, one job list per instance, and
returns per instance whether the top branch of its residual vanishes: the
part of the residual that annihilates every letter of the state.  On a
basis closed under sub-occupations, the top branches of all states vanish
exactly when the full residuals do (affine._zero_cases, which sends every
other state to the exact path).  Every job of a call has the same number
of variables.  The residue walk is array work: a fused term's top branches
on a state form a table (annihilated energy per variable, the output
momenta), every job meets every branch of its table in one int64
broadcast, one compare drops the residues that no creation can reach, and
each distinct (fused term, residue) looks up its flow map once.  A block
is a (job, branch) pair with a nonempty flow map.
The encodings a block needs, its branch's weighted base and its flow map,
sit in pools, so a call gathers their rows, guards and group keys by fancy
indexing.  The engine hands over a flow map as (dkey, delta, scalar)
triples, each scalar the entry of delta in the residue-free flow table of
its vertex terms, so each entry is encoded once per (vertex-term uids,
delta) and a new flow map's rows are gathered from those encodings.

Stage A's guards run once over every block of the call.  Then each
instance runs the two stages (the aggregate over its residue blocks, then
the creation-bucket expansion of its surviving groups), each one segmented
outer product, as when every instance had a call of its own: instances
never share a row, so no row needs an instance field (the stage B row has
no bit left for one), and peak memory stays that of one instance's rows.
Rows:

    stage A  s [0,14) | G [14,27) | meta [27,35) | deficit [35,39) | gid [39,59)
    stage B  s [0,14) | G [14,27) | meta [27,35) | occ [35,53) | mom [53,63)

Only stage A's weighted bases carry powers of (q - q^-1); one binomial
step settles the factors each row lacks, and only they and the bucket
lists carry rational denominators.  In the free-boson realization every
flow scalar is a product of contraction-series coefficients, an integral
Laurent polynomial in q, so flow rows are plain integers and a flow scalar
with a denominator or a denominator power is refused.  Bucket scalars
carry 1/mult! but no denominator power, and one with a power is refused.

The kernel's state has two lifetimes.  What later calls read is kept for
the run and cached by value: a flow-table entry per (vertex-term uids,
delta), the rows of a flow map per (fused uid, residue), a creation bucket
list per dkey.  What only one call reads is built afresh by each call: the
branch tables, the weighted bases (one per branch and weight value a live
block meets) and the registries of momenta, metas and base denominators.
A fused term meets one state in one call, so no call would find an earlier
call's branch table or base.  A top branch leaves no occupation behind, so
an output occupation is a bucket delta, and its id is part of the bucket
list's cached rows.  The
engine keeps its flow tables, which the exact path reads too, but builds
each flow map and bucket list without caching it.  Nothing is keyed by
object identity: a weight is known by its value.

Exactness is non-negotiable.  Every packing step is guarded: exponent
fields are range checked, values are numerators over one common
denominator with the largest possible absolute partial sum bounded below
2^62, and any violation raises BulkError before a row it guards is built.
Stage A runs its size guards in float64 over all blocks at once and
repeats them in exact integers whenever a float lands near a limit.
The kernel certifies a zero top branch or leaves the instance to the exact
path: an instance with a surviving row, like every instance of a call
whose guard raises BulkError, is computed by VertexEngine.extract_sum, the
one path that renders a witness.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from operator import add
from typing import NamedTuple

import numpy as np

from .oscillators import FockState
from .ring import _HALF, _MASK, _SLOT_BITS, RingElem

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

# The row layouts of the module docstring.  The deficit counts the powers
# of (q - q^-1) a row's base lacks: rows are built at their base's power
# and the binomial expansion that equalizes them runs after the first
# merge, when almost everything has cancelled.
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
_CHUNK = 1 << 20
# New flow maps are pooled this many at a time, which bounds the encodings
# a call holds while it builds them.
_FLOW_BATCH = 256
# A float64 size guard within this factor of its limit is redone exactly:
# over fewer than 2^32 blocks its rounding error stays far below 2^-20.
_NEAR = 1 - 2.0 ** -20

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
    """A merged creation bucket list stacked over one common denominator,
    one entry per occupation delta, each row keyed with its delta's
    occupation id.  It carries no power of (q - q^-1)."""

    keys: np.ndarray
    vals: np.ndarray
    denom: int
    smax: int
    gmax: int
    maxabs: int
    sumabs: int


class _Pool:
    """Append-only columns with spare room, read back by fancy indexing
    instead of per-item Python."""

    def __init__(self, **dtypes):
        self.size = 0
        self.cols = {name: np.empty(0, dtype) for name, dtype in dtypes.items()}

    def extend(self, **values) -> int:
        """Append equal-length columns; returns the index of the first row."""
        first = self.size
        self.size += len(next(iter(values.values())))
        for name, col in self.cols.items():
            if self.size > col.size:
                grown = np.empty(max(col.size + col.size // 2, self.size), col.dtype)
                grown[:first] = col[:first]
                self.cols[name] = col = grown
            col[first:self.size] = values[name]
        return first


# Per encoded scalar (a weighted base, a flow-table entry or a flow map):
# where its rows sit in the matching row pool, and what the guards read.
# maxabs and sumabs are floats, and the exact values follow from the
# scalar's pooled rows.
_STATS = dict(start=np.int64, n=np.int64, smax=np.int64, gmax=np.int64,
              maxabs=np.float64, sumabs=np.float64)


class _Table:
    """One fused term's top branches on the state of one call, as arrays:
    the annihilated energy per variable, the id of the output momenta, and
    the shift p0s + taueig a job's targets lose."""

    __slots__ = ("fused", "branches", "ann", "shift", "momid")


def _ranges(start, n):
    """Concatenated aranges: start[i] .. start[i] + n[i] for every i."""
    return np.arange(int(n.sum()), dtype=np.int64) + np.repeat(start - (np.cumsum(n) - n), n)


def _stack(encs, occs) -> _Rows:
    """Concatenate encoded scalars, lifting each onto the lcm denominator;
    the rows of encs[i] carry occupation id occs[i]."""
    denom = lcm(*(e.denom for e in encs))
    ups = [denom // e.denom for e in encs]
    return _Rows(
        np.concatenate([e.keys + (o << _B_OCC_SHIFT) for e, o in zip(encs, occs)]),
        np.concatenate([e.vals * up for e, up in zip(encs, ups)]),
        denom, max(e.smax for e in encs), max(e.gmax for e in encs),
        max(e.maxabs * up for e, up in zip(encs, ups)),
        sum(e.sumabs * up for e, up in zip(encs, ups)),
    )


def _stage_denom(fits) -> int:
    """The common denominator of stage B's products, given per product its
    rows' denominator, largest absolute row value and absolute row sum.
    Lifted onto it, every row value must fit int64 and the absolute sum of
    all rows must stay below 2^62."""
    denom = lcm(*(d for d, _, _ in fits))
    total = 0
    for d, maxabs, sumabs in fits:
        up = denom // d
        if maxabs * up >= _VAL_LIMIT:
            raise BulkError("row value overflow")
        total += sumabs * up
    if total >= _SUM_LIMIT:
        raise BulkError("stage sum bound exceeded")
    return denom


def _reduce(k, v):
    """Merge rows with equal keys; drops zero sums."""
    if not k.size:
        return k, v
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


class _Blocks(NamedTuple):
    """Per block of a call, instance after instance: its instance, momentum
    id, base-pool and flow-pool index, the key offset its left rows take
    (meta id, less its denominator power in the deficit field) and the
    lift of its right rows onto the stage denominator."""

    inst: np.ndarray
    momid: np.ndarray
    bi: np.ndarray
    fi: np.ndarray
    kadd: np.ndarray
    up: np.ndarray


class BulkEngine:
    """Packed-row zero test of the top branch of VertexEngine.extract_sum
    for one symbol table, batched over relation instances: stage A is the
    packed aggregate, stage B the creation-bucket expansion.  Entry point
    is combo_residual, called once per state with every instance of a
    relation family.

    Fed by the engine's top branches (built from its cached prefactors and
    letter options), its flow tables and its bucket builder, which caches
    nothing.  Keeps for the run the packed
    encodings of flow-table entries and flow maps in pools, bucket lists
    keyed by value and the occupation and dkey registries; each call builds
    its own branch tables, weighted-base pools and other registries
    (_new_call)."""

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
        self._new_call()
        # Flow maps: stats per scalar and rows.
        self._flow_stats = _Pool(**_STATS)
        self._flow_rows = _Pool(keys=np.int64, vals=np.int64, dk=np.int64)
        self._flow_ids: dict = {}  # (fused.uid, res) -> flow pool index, -1 if empty
        # Flow-table entries, one per (vertex-term uids, delta): a flow map's
        # rows are gathered from these.
        self._entry_stats = _Pool(**_STATS)
        self._entry_rows = _Pool(keys=np.int64, vals=np.int64)
        self._entry_ids: dict = {}  # (vterm uids, delta) -> entry pool index
        self._p_cache: dict = {}  # dkey -> _Rows | None
        # Registries, key -> dense id in insertion order: output occupations
        # (a top branch leaves none, so these are the buckets' deltas) and
        # the flow entries' dkeys.  A key whose id does not fit its row
        # field is refused whenever it is looked up.
        self._occ_ids: dict = {}
        self._dkey_ids: dict = {}

    def _new_call(self):
        """A call's own state, which no later call reads: the weighted bases
        (stats per scalar, tagged with denominator id, meta id and
        denominator power, and rows) and the registries of output momenta,
        metas and base denominators."""
        self._base_stats = _Pool(**_STATS, den=np.int64, meta=np.int64, dpow=np.int64)
        self._base_rows = _Pool(keys=np.int64, vals=np.int64)
        self._mom_ids: dict = {}
        self._meta_ids: dict = {}
        self._den_ids: dict = {}

    # -- scalar encoding -----------------------------------------------------

    def _enc(self, elem: RingElem) -> _Enc:
        """elem's numerators, over elem.den (q - q^-1)^elem.dpow, as parallel arrays."""
        items = list(elem.terms.items())
        if not items:
            raise BulkError("empty scalar")
        k0 = items[0][0]
        vec = self.table._exp_vector(k0, 1 if self.g_slot is None else 2)
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

    def _pool_encs(self, stats: _Pool, rows: _Pool, encs, **extra) -> int:
        """Append encodings to a stats pool and its row pool; returns the
        index of the first."""
        sizes = np.asarray([e.keys.size for e in encs], dtype=np.int64)
        start = rows.extend(keys=np.concatenate([e.keys for e in encs]),
                            vals=np.concatenate([e.vals for e in encs]))
        return stats.extend(
            start=start + np.cumsum(sizes) - sizes, n=sizes,
            smax=[e.smax for e in encs], gmax=[e.gmax for e in encs],
            maxabs=[float(e.maxabs) for e in encs], sumabs=[float(e.sumabs) for e in encs],
            **extra)

    # -- structure encoding ---------------------------------------------------

    def _enc_flow(self, scalar) -> _Enc:
        """One flow-table entry encoded; flow scalars are integral Laurent
        polynomials in q, with neither a (q - q^-1) power, a denominator
        nor symbol content."""
        if scalar.dpow:
            raise BulkError("denominator power above target")
        if scalar.den != 1:
            raise BulkError("flow numerator outside packed range")
        e = self._enc(scalar)
        if e.meta:
            raise BulkError("flow scalar carries symbol content")
        return e

    def _flows(self, want) -> np.ndarray:
        """The flow-pool index of each distinct (fused, res) in want, -1
        for an empty flow map.  Maps not seen before are pooled in batches
        of _FLOW_BATCH, each registered once it is pooled.  A flow map's
        scalars are entries of the engine's flow table of fused's vertex
        terms, so each is encoded once per (vertex-term uids, delta) and a
        map's rows are gathered from the entry pools."""
        ids, entry_ids, dkey_ids = self._flow_ids, self._entry_ids, self._dkey_ids
        new, fresh, encs = [], {}, []
        # Largest residue first: the engine refills a flow table when a
        # residue passes its reach, so each table is filled at most once.
        for fused, res in sorted(want, key=lambda w: -max(w[1])):
            if (fused.uid, res) in ids:
                continue
            flows = self.engine.flows_map(fused, res)
            if not flows:
                ids[fused.uid, res] = -1
                continue
            idx = []
            for _, delta, scalar in flows:
                key = (fused.uids, delta)
                e = entry_ids.get(key)
                if e is None:
                    e = fresh.get(key)
                    if e is None:
                        encs.append(self._enc_flow(scalar))
                        e = fresh[key] = self._entry_stats.size + len(encs) - 1
                idx.append(e)
            new.append(((fused.uid, res), idx,
                        [dkey_ids.setdefault(dkey, len(dkey_ids)) for dkey, _, _ in flows]))
            if len(new) == _FLOW_BATCH:
                self._pool_flows(new, fresh, encs)
                new, fresh, encs = [], {}, []
        if new:
            self._pool_flows(new, fresh, encs)
        return np.fromiter((ids[fused.uid, res] for fused, res in want),
                           dtype=np.int64, count=len(want))

    def _pool_flows(self, new, fresh, encs):
        """Pool and register the new entries, then append the new flow maps,
        each gathered from its entries' rows, to the flow pools and register
        them.  Entries are integral, so a map's rows need no lift."""
        if encs:
            self._pool_encs(self._entry_stats, self._entry_rows, encs)
            self._entry_ids.update(fresh)
        E, ER = self._entry_stats.cols, self._entry_rows.cols
        cnt = np.asarray([len(idx) for _, idx, _ in new], dtype=np.int64)
        firsts = np.cumsum(cnt) - cnt
        ei = np.asarray([e for _, idx, _ in new for e in idx], dtype=np.int64)
        n = E["n"][ei]
        ri = _ranges(E["start"][ei], n)
        start = self._flow_rows.extend(
            keys=ER["keys"][ri], vals=ER["vals"][ri],
            dk=np.repeat(np.asarray([d for _, _, dks in new for d in dks], dtype=np.int64), n))
        rows = np.add.reduceat(n, firsts)
        first = self._flow_stats.extend(
            start=start + np.cumsum(rows) - rows, n=rows,
            smax=np.maximum.reduceat(E["smax"][ei], firsts),
            gmax=np.maximum.reduceat(E["gmax"][ei], firsts),
            maxabs=np.maximum.reduceat(E["maxabs"][ei], firsts),
            sumabs=np.add.reduceat(E["sumabs"][ei], firsts))
        for i, (key, _, _) in enumerate(new):
            self._flow_ids[key] = first + i

    def _enc_p(self, dkey):
        hit = self._p_cache.get(dkey, _MISSING)
        if hit is not _MISSING:
            return hit
        part = self.engine.bucket_product_key(dkey)
        rows = None
        if part:
            encs, occs = [], []
            for delta, scal in part:
                if scal.dpow:
                    raise BulkError("denominator power above target")
                e = self._enc(scal)
                if e.meta:
                    raise BulkError("bucket scalar carries symbol content")
                encs.append(e)
                occs.append(self._occ_ids.setdefault(delta, len(self._occ_ids)))
                if occs[-1] >= _OCC_MAX:
                    raise BulkError("occupation registry full")
            rows = _stack(encs, occs)
            if rows.maxabs >= _SUM_LIMIT:
                raise BulkError("bucket numerator outside packed range")
        self._p_cache[dkey] = rows
        return rows

    def _table(self, fused, state) -> _Table:
        """The branch table of fused on state: the engine's top branches,
        which annihilate every letter of state (occ_after empty)."""
        tab = _Table()
        tab.fused = fused
        tab.branches, taueig, momenta = self.engine.top_branches(fused, state)
        tab.ann = np.asarray([b[1] for b in tab.branches],
                             dtype=np.int64).reshape(-1, len(fused.vterms))
        tab.shift = np.asarray([tuple(map(add, fused.p0s, taueig))], dtype=np.int64)
        tab.momid = self._mom_ids.setdefault(momenta, len(self._mom_ids))
        if tab.momid >= _MOM_MAX:
            raise BulkError("momentum registry full")
        return tab

    # -- the residue walk -------------------------------------------------------

    def _blocks(self, jobs, state):
        """Every block of every instance: per block its instance, momentum
        id, base-pool index and flow-pool index, or None without blocks."""
        tabs, tab_of = [], {}  # the call's tables, by fused uid
        stacks, stack_of = [], {}  # (table position, weight), by (uid, weight key)
        s_job, targets = [], []
        for inst_jobs in jobs:
            for fused, tg, weight in inst_jobs:
                wkey = None if weight is None else (
                    tuple(weight.terms.items()), weight.dpow, weight.den)
                s = stack_of.get((fused.uid, wkey))
                if s is None:
                    t = tab_of.get(fused.uid)
                    if t is None:
                        t = tab_of[fused.uid] = len(tabs)
                        tabs.append(self._table(fused, state))
                    s = stack_of[fused.uid, wkey] = len(stacks)
                    stacks.append((t, weight))
                s_job.append(s)
                targets.append(tg)
        if not s_job:
            return None
        s_job = np.asarray(s_job, dtype=np.int64)

        # Every job against the branches of its table that leave a
        # reachable residue, sum(res) >= 0.
        nb = np.asarray([len(tab.branches) for tab in tabs], dtype=np.int64)
        first = np.cumsum(nb) - nb
        t_job = np.asarray([t for t, _ in stacks], dtype=np.int64)[s_job]
        off = np.asarray(targets, dtype=np.int64) - np.concatenate(
            [tab.shift for tab in tabs])[t_job]
        jj = np.repeat(np.arange(t_job.size), nb[t_job])
        jb = _ranges(first[t_job], nb[t_job])
        res = off[jj] + np.concatenate([tab.ann for tab in tabs])[jb]
        reach = res.sum(axis=1) >= 0
        jj, jb, res = jj[reach], jb[reach], res[reach]
        if not jj.size:
            return None

        # Flow maps once per distinct (table, residue), through a dense key.
        t_blk = t_job[jj]
        lo = res.min(axis=0)
        span = res.max(axis=0) - lo + 1
        radix = len(tabs)
        for c in span.tolist():
            radix *= c
        if radix >= _VAL_LIMIT:
            raise BulkError("exponent field overflow")
        key = t_blk
        for c in range(span.size):
            key = key * span[c] + (res[:, c] - lo[c])
        _, at, inv = np.unique(key, return_index=True, return_inverse=True)
        want = [(tabs[t].fused, tuple(rs))
                for t, *rs in np.column_stack((t_blk[at], res[at])).tolist()]
        fi = self._flows(want)[inv]
        del want, key, at, inv, res
        live = fi >= 0
        jj, jb, fi = jj[live], jb[live], fi[live]
        if not jj.size:
            return None

        # Weighted bases: each (stack, branch slot) the live blocks meet is
        # encoded once, and its base-pool index is its rank.
        span = int(nb.max())
        used, bi = np.unique(s_job[jj] * span + (jb - first[t_job[jj]]), return_inverse=True)
        encs = []
        for s, i in zip((used // span).tolist(), (used % span).tolist()):
            t, weight = stacks[s]
            base = tabs[t].branches[i][0]
            encs.append(self._enc(base if weight is None else base * weight))
        metas, dens = self._meta_ids, self._den_ids
        self._pool_encs(self._base_stats, self._base_rows, encs,
                        den=[dens.setdefault(e.denom, len(dens)) for e in encs],
                        meta=[metas.setdefault(e.meta, len(metas)) for e in encs],
                        dpow=[e.dpow for e in encs])

        inst = np.repeat(np.arange(len(jobs)), [len(j) for j in jobs])[jj]
        momid = np.asarray([tab.momid for tab in tabs], dtype=np.int64)[t_job[jj]]
        return inst, momid, bi, fi

    # -- the two stages --------------------------------------------------------

    def combo_residual(self, jobs, state: FockState) -> list:
        """Whether the top branch of each relation instance's sum of
        weighted mode extractions vanishes on one state, decided through
        packed rows.  jobs[i] is instance i's job list in
        VertexEngine.extract_sum's form, and entry i of the answer is True
        exactly when extract_sum(jobs[i], state), run on the branches that
        annihilate every letter of state (occ_after empty), is {}.  Every
        job of one call has the same number of variables.  Raises BulkError
        instead of answering when any guard trips."""
        zero = [True] * len(jobs)
        self._new_call()
        found = self._blocks(jobs, state)
        if found is None:
            return zero
        blocks, d_max, denom_a = self._guard_a(*found)
        cuts = (np.flatnonzero(np.diff(blocks.inst)) + 1).tolist()
        for b0, b1 in zip([0, *cuts], [*cuts, blocks.inst.size]):
            stage_a = self._stage_a(_Blocks(*(a[b0:b1] for a in blocks)), d_max)
            if stage_a is not None and self._stage_b(*stage_a, denom_a):
                zero[int(blocks.inst[b0])] = False
        return zero

    def _guard_a(self, inst, momid, bi, fi):
        """Stage A's guards over every block of the call, before any row
        exists: meta ids, exponent fields, denominator powers, the common
        denominator and, per instance, the sum bound.  Returns the blocks
        with their key offsets and lifts, the largest denominator power and
        the stage denominator."""
        B = self._base_stats.cols
        F = self._flow_stats.cols
        # Meta travels as a row field: rows of one group may mix monomials
        # (a degree-0 vertex term drops out of the dkey but keeps its
        # constant), and distinct monomials never cancel, so the field
        # costs nothing.
        metas, mid = np.unique(B["meta"][bi], return_inverse=True)
        if metas.size > _META_MAX:
            raise BulkError("meta registry full")
        if ((B["smax"][bi] + F["smax"][fi] > _S_MASK)
                | (B["gmax"][bi] + F["gmax"][fi] > _G_MASK)).any():
            raise BulkError("exponent field overflow")
        dpow = B["dpow"][bi]
        d_max = int(dpow.max())
        if d_max - int(dpow.min()) >= _DEF_MAX:
            raise BulkError("denominator deficit outside packed range")

        # _stage_denom's two guards, in float64 and exactly for the blocks
        # (or instances) within _NEAR of a limit.  Rows of different
        # instances never meet, so the sum bound holds per instance.  Flow
        # maps are integral, so a block's denominator is its base's.
        dens = list(self._den_ids)
        used, pinv = np.unique(B["den"][bi], return_inverse=True)
        ds = [dens[d] for d in used.tolist()]
        denom = lcm(*ds)
        ups = [denom // d for d in ds]
        # every denominator has a block, and every block's largest value is >= 1
        if max(ups) >= _VAL_LIMIT:
            raise BulkError("row value overflow")
        upf = np.asarray(ups, dtype=np.float64)[pinv]
        near = B["maxabs"][bi] * F["maxabs"][fi] * upf >= _VAL_LIMIT * _NEAR
        for b, f, p in zip(bi[near].tolist(), fi[near].tolist(), pinv[near].tolist()):
            if self._abs(self._base_stats, self._base_rows, b, max) * self._abs(
                    self._flow_stats, self._flow_rows, f, max) * ups[p] >= _VAL_LIMIT:
                raise BulkError("row value overflow")
        totals = np.bincount(inst, weights=B["sumabs"][bi] * F["sumabs"][fi] * upf)
        for i in np.flatnonzero(totals * 2.0 ** d_max >= _SUM_LIMIT * _NEAR).tolist():
            mine = inst == i
            exact = sum(self._abs(self._base_stats, self._base_rows, b, sum) * self._abs(
                self._flow_stats, self._flow_rows, f, sum) * ups[p]
                for b, f, p in zip(bi[mine].tolist(), fi[mine].tolist(), pinv[mine].tolist()))
            if (exact << d_max) >= _SUM_LIMIT:
                raise BulkError("stage sum bound exceeded")
        kadd = (mid << _B_META_SHIFT) + ((d_max - dpow) << _A_DEF_SHIFT)
        up = np.asarray(ups, dtype=np.int64)[pinv]
        return _Blocks(inst, momid, bi, fi, kadd, up), d_max, denom

    def _stage_a(self, run: _Blocks, d_max: int):
        """The packed aggregate over one instance's blocks: its merged rows,
        rebiased, with the momentum ids and dkey count that read their group
        ids, or None when every row cancels."""
        B = self._base_stats.cols
        F = self._flow_stats.cols

        # A group is a (momentum id, dkey) pair; group ids follow their order.
        moms, mloc = np.unique(run.momid, return_inverse=True)
        ndk = len(self._dkey_ids)
        ln = B["n"][run.bi]
        rn = F["n"][run.fi]
        ri = _ranges(F["start"][run.fi], rn)
        FR = self._flow_rows.cols
        gkeys = np.repeat(mloc * ndk, rn) + FR["dk"][ri]
        groups, row_gids = np.unique(gkeys, return_inverse=True)
        if groups.size > _GID_MAX:
            raise BulkError("group registry full")

        # All blocks in one segmented product.  A row's deficit is d_max
        # less its block's power; flow entries carry none.
        li = _ranges(B["start"][run.bi], ln)
        BR = self._base_rows.cols
        akeys, avals = _outer_blocks(
            BR["keys"][li] + np.repeat(run.kadd, ln), BR["vals"][li], ln,
            FR["keys"][ri] + (row_gids << _A_GID_SHIFT), FR["vals"][ri] * np.repeat(run.up, rn), rn,
        )
        if akeys.size == 0:
            return None

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
                return None

        if ((akeys & _S_MASK) < _SB).any() or (((akeys >> _A_G_SHIFT) & _G_MASK) < _GB).any():
            raise BulkError("aggregate exponent below packed range")
        akeys = akeys - _REBIAS
        if (((akeys & _S_MASK) >> _SW) != 0).any():
            raise BulkError("aggregate exponent above packed range")
        if ((((akeys >> _A_G_SHIFT) & _G_MASK) >> _GW) != 0).any():
            raise BulkError("aggregate exponent above packed range")
        return akeys, avals, (moms.tolist(), ndk, groups.tolist())

    def _stage_b(self, akeys, avals, read, denom_a) -> bool:
        """Whether a row of the creation-bucket expansion of one instance's
        surviving groups outlives the merge."""
        moms, ndk, groups = read
        # The same two-pass shape as stage A, its guards fed by per-group
        # reductions over the sorted rows.
        gids = akeys >> _A_GID_SHIFT
        starts = np.flatnonzero(np.concatenate(([True], gids[1:] != gids[:-1])))
        counts = np.diff(np.append(starts, gids.size))
        lo = akeys & _LO_MASK
        absv = np.abs(avals)
        dkeys = list(self._dkey_ids)
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
        fits = []  # per live group: its product's denominator, largest value and sum
        for gid, gv, smax, gmax, maxabs, sumabs in stats:
            momid = moms[groups[gid] // ndk]
            dkey = dkeys[groups[gid] % ndk]
            penc = self._enc_p(dkey)
            live.append(penc is not None)
            if penc is None:
                continue
            if smax + penc.smax > _S_MASK or gmax + penc.gmax > _G_MASK:
                raise BulkError("exponent field overflow")
            g = gcd(gv, denom_a)
            fits.append((denom_a // g * penc.denom, maxabs // g * penc.maxabs,
                         sumabs // g * penc.sumabs))
            divs.append(g)
            right.append((penc, momid))
        if not right:
            return False
        denom_b = _stage_denom(fits)

        live = np.asarray(live)
        rows = np.repeat(live, counts)
        ln = counts[live]
        rn = np.asarray([penc.keys.size for penc, _ in right], dtype=np.int64)
        mom_keys = [momid << _B_MOM_SHIFT for _, momid in right]
        ups = [denom_b // d for d, _, _ in fits]
        bkeys, _ = _outer_blocks(
            lo[rows], avals[rows] // np.repeat(divs, ln), ln,
            np.concatenate([penc.keys for penc, _ in right]) + np.repeat(mom_keys, rn),
            np.concatenate([penc.vals for penc, _ in right]) * np.repeat(ups, rn), rn,
        )
        return bkeys.size > 0

    @staticmethod
    def _abs(stats: _Pool, rows: _Pool, i: int, fold) -> int:
        """fold (max or sum) of the absolute numerators of pooled scalar i,
        exactly: the pool's float maxabs and sumabs round above 2^53."""
        start = int(stats.cols["start"][i])
        vals = rows.cols["vals"][start:start + int(stats.cols["n"][i])]
        return fold(abs(v) for v in vals.tolist())
