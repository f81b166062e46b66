"""Oscillator algebra and Fock modules for the level-k free-boson realization.

Six oscillator families act in the (2|1) currents: two Cartan families a^1,
a^2 and the lattice families b^12, b^13, b^23, c^12.  Only the b/c families
carry zero-mode coordinates Q (no e^{Q_a} occurs in the currents), so a Fock
state is a four-slot momentum vector plus a multiset of creation modes; the
a^i_0 vacuum eigenvalues stay formal as w_i.

Creation modes are stored normalized, dhat_{-m} = d_{-m}/[m], for every
family; annihilation modes are normalized fhat_n = d_n/[n] for b/c but kept
raw for a (whose contractions carry the level bracket [(k+g)n]).  With this
split every contraction value below is a ring element: nothing ever divides
by a formal q-integer.

Each rule of the Fock-space arithmetic is defined once, here: occ_add is the
only code that changes an occupation, OscillatorAlgebra.contract_hat the only
contraction table (the raw variants multiply it by [n]), and momentum_eigen
the only zero-mode eigenvalue (K_i included).  A vertex term's annihilation
value on one creation letter is currents.VTerm.ann_value.

The two odd zero-mode letters (Q_b^13, Q_b^23 for this shape) anticommute
between distinct pairs; states and operator words are stored with letters in
lexicographic slot order and the crossing signs are computed explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .ring import LinForm, RingElem, SymbolTable

FAMILIES = ("a1", "a2", "b12", "b13", "b23", "c12")
Q_SLOTS = ("b12", "b13", "b23", "c12")
ODD_SLOT = (False, True, True, False)
# [d_0, Q_d]: -nu_i nu_j for b, +1 for c
C0 = {"b12": -1, "b13": 1, "b23": 1, "c12": 1}
# sign of [d_n, d_{-n}] relative to (1/n)[n]^2 for the b/c families
BC_SIGN = {"b12": -1, "b13": 1, "b23": 1, "c12": 1}
A_CARTAN = {("a1", "a1"): 2, ("a1", "a2"): -1, ("a2", "a1"): -1, ("a2", "a2"): 0}
G_SHIFT = 1  # M - N for (2|1)


class OscillatorAlgebra:
    """Contraction tables over one symbol table (level formal or numeric)."""

    def __init__(self, table: SymbolTable):
        self.table = table

    def qint_ratio(self, a: int, n: int) -> RingElem:
        """[a n]/[n] as a Laurent polynomial (geometric sum in q^{2n})."""
        if a == 0:
            return self.table.zero()
        sign = 1 if a > 0 else -1
        mag = abs(a)
        out = self.table.zero()
        for t in range(mag):
            out = out + self.table.qpow(LinForm((mag - 1 - 2 * t) * n))
        return out * sign

    def level_bracket(self, n: int) -> RingElem:
        """[(k+g)n] with the level formal."""
        return self.table.qbracket(LinForm(G_SHIFT * n, {"k": Fraction(n)}))

    def contract_hat(self, ann: str, cre: str, n: int) -> RingElem:
        """[ann_n, cre-hat_{-n}] with b/c annihilators normalized, a raw."""
        if ann.startswith("a") and cre.startswith("a"):
            a = A_CARTAN[(ann, cre)]
            if a == 0:
                return self.table.zero()
            return self.level_bracket(n) * self.qint_ratio(a, n) * Fraction(1, n)
        if ann == cre:
            return self.table.rational(Fraction(BC_SIGN[ann], n))
        return self.table.zero()

    def contract_raw_hat(self, ann: str, cre: str, n: int) -> RingElem:
        """[ann_n, cre-hat_{-n}] with the annihilator raw (H-mode action):
        contract_hat, times [n] for the b/c families."""
        hat = self.contract_hat(ann, cre, n)
        return hat if ann.startswith("a") else hat * self.table.qint(n)

    def contract_raw_raw(self, x: str, y: str, n: int) -> RingElem:
        """[x_n, y_{-n}] with both modes raw (scalar Heisenberg closure)."""
        return self.contract_raw_hat(x, y, n) * self.table.qint(n)


def occ_add(occ: tuple, delta) -> tuple:
    """The occupation occ plus delta, both ((family, m), mult) pairs, as a
    sorted tuple; a mode whose multiplicity reaches 0 drops out."""
    d = dict(occ)
    for mode, mu in delta:
        mult = d.get(mode, 0) + mu
        if mult:
            d[mode] = mult
        else:
            d.pop(mode, None)
    return tuple(sorted(d.items()))


class FockState(NamedTuple):
    """momenta: one integer per Q slot; occ: sorted ((family, m), mult)
    multiset of normalized creation modes dhat_{-m}, m > 0.  A plain tuple,
    so states hash, compare and sort as (momenta, occ)."""

    momenta: tuple
    occ: tuple = ()

    @property
    def energy(self) -> int:
        return sum(m * mult for (_, m), mult in self.occ)

    def with_creation(self, fam: str, m: int, times: int = 1) -> "FockState":
        return FockState(self.momenta, occ_add(self.occ, (((fam, m), times),)))


VACUUM = FockState((0, 0, 0, 0))


def format_state(state: FockState) -> str:
    body = "".join(
        f" {fam}[-{m}]" + (f"^{mult}" if mult > 1 else "")
        for (fam, m), mult in state.occ
    )
    return "m=(" + ",".join(str(v) for v in state.momenta) + ")" + body


def add_term(vec: dict, state: FockState, coeff: RingElem):
    if state in vec:
        c = vec[state] + coeff
        if c.is_zero():
            del vec[state]
        else:
            vec[state] = c
    elif not coeff.is_zero():
        vec[state] = coeff


def vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for s, c in b.items():
        add_term(out, s, -c)
    return out


def vec_scale(a: dict, c) -> dict:
    out = {}
    for s, v in a.items():
        w = v * c
        if not w.is_zero():
            out[s] = w
    return out


def cocycle_sign(eps, momenta) -> int:
    """Sign from merging an operator zero-mode word (slot order) into a
    state's word: each odd operator letter crosses the state's odd letters
    at strictly earlier slots."""
    sign = 1
    for t in range(len(Q_SLOTS)):
        if ODD_SLOT[t] and eps[t]:
            crossings = sum(
                abs(momenta[s]) for s in range(t) if ODD_SLOT[s]
            )
            if (abs(eps[t]) * crossings) % 2:
                sign = -sign
    return sign


def momentum_eigen(table: SymbolTable, sigma, sigma_a, state: FockState) -> RingElem:
    """q^(sum_d sigma_d d_0) acting on the state's zero modes; sigma per Q
    slot is a LinForm in k or an int, sigma_a per Cartan family an int."""
    form = LinForm(0)
    for t, slot in enumerate(Q_SLOTS):
        m = state.momenta[t]
        if m:
            form = form + sigma[t] * (C0[slot] * m)
    for i, s in enumerate(sigma_a):
        if s:
            form = form + LinForm.sym(f"w{i+1}", s)
    return table.qpow(form)


# K_i = q^(sum_d sigma_d d_0) as momentum_eigen's (sigma, sigma_a)
K_EXPONENTS = {1: ((2, 1, -1, 0), (1, 0)), 2: ((-1, -1, 0, 0), (0, 1))}


def k_eigenvalue(table: SymbolTable, i: int, state: FockState) -> RingElem:
    """Eigenvalue of K_i = q^(integer combination of zero modes)."""
    return momentum_eigen(table, *K_EXPONENTS[i], state)


def apply_oscillator(alg: OscillatorAlgebra, coeffs: dict, n: int, state: FockState) -> dict:
    """Apply sum_fam coeffs[fam] * fam_n (raw modes, n != 0) to one state."""
    if n == 0:
        raise ValueError("zero modes act diagonally; not handled here")
    out: dict = {}
    if n < 0:
        bracket = alg.table.qint(-n)
        for fam, coeff in coeffs.items():
            add_term(out, state.with_creation(fam, -n), coeff * bracket)
        return out
    for (fam2, m), mult in state.occ:
        if m != n:
            continue
        for fam, coeff in coeffs.items():
            val = alg.contract_raw_hat(fam, fam2, n)
            if not val.is_zero():
                tgt = FockState(state.momenta, occ_add(state.occ, (((fam2, m), -1),)))
                add_term(out, tgt, coeff * val * mult)
    return out


def enumerate_basis(E_cut: int, radius: int = 0, norm: str = "l1") -> list:
    """All Fock states with energy <= E_cut and momenta in the given window."""
    if norm not in ("l1", "box"):
        raise ValueError(f"momentum norm must be l1 or box, got {norm!r}")
    if E_cut < 0 or radius < 0:
        raise ValueError(f"energy cut {E_cut} and momentum radius {radius} must be >= 0")
    momenta = [()]
    for _ in Q_SLOTS:
        momenta = [m + (v,) for m in momenta for v in range(-radius, radius + 1)]
    if norm == "l1":
        momenta = [m for m in momenta if sum(abs(v) for v in m) <= radius]

    modes = [(fam, m) for m in range(1, E_cut + 1) for fam in FAMILIES]
    stack = [((), 0)]
    all_occs = [()]
    while stack:
        occ, e = stack.pop()
        last = occ[-1][0] if occ else None
        for fam, m in modes:
            # modes join in nondecreasing order, so each multiset comes once
            if e + m > E_cut or (last is not None and (fam, m) < last):
                continue
            key = occ_add(occ, (((fam, m), 1),))
            all_occs.append(key)
            stack.append((key, e + m))

    return [
        FockState(m, occ)
        for m in sorted(momenta)
        for occ in sorted(all_occs)
    ]
