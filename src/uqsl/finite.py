"""q-difference realization of U_q(sl(M|N)) on flag coordinates.

Generators act on supercommutative polynomials through atoms: a diagonal
q-power, optional diagonal q-bracket factors, lowerings, and a left
multiplier, in that order (right to left as the displays are written).  The
diagonal pieces are always evaluated at the exponents of the incoming
monomial, before any lowering or multiplication changes them.

Relation checking applies both sides of each identity to every monomial of
bounded degree and compares coefficients exactly, with q and all weights
lambda_i formal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .grassmann import FlagSpace, SuperPoly, basis_upto
from .report import RelationResult, relation_id, run_instances
# Re-exported: perfbench/spans.py swaps finite.numeric_check for a timing
# wrapper and fails if the attribute is missing.
from .report import numeric_check  # noqa: F401
from .ring import LinForm, finite_symbols, verify_bracket_identity
from .structure import build_root_data, graded_bracket_sign

_NO_SHIFT = LinForm(0)

SABOTAGE_IDS = ("e_ii", "e_iip", "f1", "f2", "f3", "h", "f2-theta")
BRACKET_NMAX = 4


@dataclass(frozen=True)
class Atom:
    """One operator summand; fields are applied right to left."""

    shift: LinForm = field(default_factory=lambda: _NO_SHIFT)
    brackets: tuple = ()
    lowers: tuple = ()
    mult: tuple = ()
    coeff: int = 1

    def parity(self, space: FlagSpace) -> int:
        p = 0
        for v in self.mult:
            p ^= space.parity[space.index[v]]
        for v in self.lowers:
            p ^= space.parity[space.index[v]]
        return p

    def apply(self, space: FlagSpace, p: SuperPoly) -> SuperPoly:
        out = p
        if self.shift.const or self.shift.coeffs or self.shift.thetas:
            out = out.qshift(self.shift)
        for b in self.brackets:
            out = out.qbracket_diag(b)
        for v in reversed(self.lowers):
            out = out.lower(*v)
        for v in reversed(self.mult):
            out = SuperPoly.variable(space, *v) * out
        if self.coeff != 1:
            out = out.scale(self.coeff)
        return out


class QDiffOp:
    """Finite atom sum with a definite parity."""

    __slots__ = ("space", "atoms", "parity")

    def __init__(self, space: FlagSpace, atoms, parity: int):
        self.space = space
        self.atoms = tuple(atoms)
        self.parity = parity
        for a in self.atoms:
            if a.parity(space) != parity:
                raise ValueError(f"atom parity mismatch in {a}")

    def apply(self, p: SuperPoly) -> SuperPoly:
        out = SuperPoly(self.space, {})
        for a in self.atoms:
            out = out + a.apply(self.space, p)
        return out


class LinMap:
    """Linear map assembled from operators; only apply and parity remain."""

    __slots__ = ("fn", "parity")

    def __init__(self, fn, parity: int):
        self.fn = fn
        self.parity = parity

    def apply(self, p: SuperPoly) -> SuperPoly:
        return self.fn(p)


def compose(A, B) -> LinMap:
    """The map p -> A(B(p))."""
    return LinMap(lambda p: A.apply(B.apply(p)), (A.parity + B.parity) % 2)


def scale_map(A, c) -> LinMap:
    return LinMap(lambda p: A.apply(p).scale(c), A.parity)


def graded_commutator(A, B, xi=None) -> LinMap:
    """[A, B]_xi = AB - (-1)^(|A||B|) xi BA as a linear map."""
    sign = graded_bracket_sign(A.parity, B.parity)

    def bracket(p):
        out = A.apply(B.apply(p))
        back = B.apply(A.apply(p))
        if xi is not None:
            back = back.scale(xi)
        return out - back.scale(sign)

    return LinMap(bracket, (A.parity + B.parity) % 2)


class FiniteRealization:
    """All operator builders for one (M|N) shape.

    sabotage deliberately corrupts one named atom family; every such
    corruption must surface as a relation failure (negative controls).
    """

    def __init__(self, M: int, N: int, sabotage: str | None = None):
        self.root = build_root_data(M, N)
        self.table = finite_symbols(self.root.rank)
        self.space = FlagSpace(self.root, self.table)
        if sabotage is not None and sabotage not in SABOTAGE_IDS:
            raise ValueError(f"unknown sabotage id {sabotage!r}")
        self.sabotage = sabotage

    # -- linear forms -----------------------------------------------------

    def _nu(self, i: int) -> int:
        return self.root.nu(i)

    def _w(self, i: int, rows: range | None = None, cols: range | None = None) -> LinForm:
        """W_i[rows, cols]: the sum of weight(i, l, m) theta_lm over the
        coordinates x_lm with l in rows and m in cols (any, when omitted)."""
        weight = self.root.weight
        return LinForm(0, None, {
            (l, m): weight(i, l, m) for l, m in self.space.vars
            if (rows is None or l in rows) and (cols is None or m in cols)
        })

    def h_form(self, i: int) -> LinForm:
        form = LinForm.sym(f"l{i}") - self._w(i)
        if self.sabotage == "h":
            form = form + 1
        return form

    # -- atoms from the display equations -----------------------------------

    def _sab(self, atom: Atom, kind: str) -> Atom:
        if self.sabotage == kind:
            return Atom(atom.shift + 1, atom.brackets, atom.lowers, atom.mult, atom.coeff)
        return atom

    def atom_e_ii(self, i: int) -> Atom:
        return self._sab(
            Atom(shift=-self._w(i, rows=range(1, i)), lowers=((i, i + 1),)), "e_ii"
        )

    def atom_e_iip(self, i: int, ip: int) -> Atom:
        if not 1 <= ip <= i - 1:
            raise ValueError(f"need 1 <= i' <= i-1, got i'={ip}, i={i}")
        return self._sab(
            Atom(
                shift=-self._w(i, rows=range(1, ip)),
                lowers=((ip, i + 1),),
                mult=((ip, i),),
            ),
            "e_iip",
        )

    def atom_f1(self, j: int, jp: int) -> Atom:
        if not 1 <= jp <= j - 1:
            raise ValueError(f"need 1 <= j' <= j-1, got j'={jp}, j={j}")
        shift = self._w(j, rows=range(jp + 1, self.root.total + 1)) - LinForm.sym(f"l{j}")
        return self._sab(
            Atom(shift=shift, lowers=((jp, j),), mult=((jp, j + 1),)), "f1"
        )

    def atom_f2(self, j: int) -> Atom:
        if self.sabotage == "f2-theta":
            bracket = LinForm.sym(f"l{j}")
        else:
            bracket = (
                LinForm.sym(f"l{j}")
                - LinForm.theta((j, j + 1), self._nu(j))
                - self._w(j, cols=range(j + 2, self.root.total + 1))
            )
        return self._sab(Atom(brackets=(bracket,), mult=((j, j + 1),)), "f2")

    def atom_f2_half(self, j: int) -> Atom:
        """The alternative diagonal-bracket form; provably equal to atom_f2."""
        nu = self._nu
        bracket = (
            LinForm.sym(f"l{j}")
            - LinForm.theta((j, j + 1), Fraction(nu(j) + nu(j + 1), 2))
            - self._w(j, cols=range(j + 2, self.root.total + 1))
        )
        return Atom(brackets=(bracket,), mult=((j, j + 1),))

    def atom_f3(self, j: int, jp: int) -> Atom:
        if not j + 2 <= jp <= self.root.total:
            raise ValueError(f"need j+2 <= j' <= M+N, got j'={jp}, j={j}")
        shift = LinForm.sym(f"l{j}") - self._w(j, cols=range(jp, self.root.total + 1))
        return self._sab(
            Atom(shift=shift, lowers=((j + 1, jp),), mult=((j, jp),)), "f3"
        )

    # -- assembled generators -----------------------------------------------

    def _op(self, atoms) -> QDiffOp:
        atoms = tuple(atoms)
        parity = atoms[0].parity(self.space) if atoms else 0
        return QDiffOp(self.space, atoms, parity)

    def build_t(self, i: int, power: int = 1) -> QDiffOp:
        return self._op([Atom(shift=self.h_form(i) * power)])

    def build_h_bracket(self, i: int) -> QDiffOp:
        """The diagonal operator [h_i]."""
        return self._op([Atom(brackets=(self.h_form(i),))])

    def build_e(self, i: int, variant: str) -> QDiffOp:
        if variant not in ("i", "ii"):
            raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
        atoms = [self.atom_e_ii(i)]
        scale = self._nu(i) if variant == "i" else 1
        for ip in range(1, i):
            a = self.atom_e_iip(i, ip)
            atoms.append(Atom(a.shift, a.brackets, a.lowers, a.mult, a.coeff * scale))
        return self._op(atoms)

    def build_f(self, j: int, variant: str) -> QDiffOp:
        if variant not in ("i", "ii"):
            raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
        c1 = 1 if variant == "i" else self._nu(j)
        c3 = -1 if variant == "i" else -self._nu(j + 1)
        atoms = []
        for jp in range(1, j):
            a = self.atom_f1(j, jp)
            atoms.append(Atom(a.shift, a.brackets, a.lowers, a.mult, a.coeff * c1))
        atoms.append(self.atom_f2(j))
        for jp in range(j + 2, self.root.total + 1):
            a = self.atom_f3(j, jp)
            atoms.append(Atom(a.shift, a.brackets, a.lowers, a.mult, a.coeff * c3))
        return self._op(atoms)

    def parity_map(self) -> LinMap:
        """The involution x_ij -> nu_j x_ij as a diagonal map."""
        nus = tuple(self._nu(j) for _, j in self.space.vars)

        def sign(m):
            s = 1
            for pos, e in enumerate(m):
                if e & 1 and nus[pos] < 0:
                    s = -s
            return s

        return LinMap(lambda p: p.scale_diag(sign), 0)


def sabotage_changes_nothing(M, N, variant, D, sabotage) -> bool:
    """True when every generator e_i, f_i, K_i of the sabotaged realization
    sends every flag monomial of degree <= D where the clean one does: the
    negative control then corrupts nothing the relations on that basis see."""

    def images(real):
        one = real.table.one()
        basis = basis_upto(real.space, D)
        for i in range(1, real.root.rank + 1):
            for op in (real.build_e(i, variant), real.build_f(i, variant), real.build_t(i)):
                for m in basis:
                    yield op.apply(SuperPoly(real.space, {m: one})).terms

    return all(a == b for a, b in zip(
        images(FiniteRealization(M, N)), images(FiniteRealization(M, N, sabotage))))


# -- relation checking -------------------------------------------------------


def _descending(m: tuple) -> tuple:
    return tuple(-e for e in m)


def _runner(real: FiniteRealization, D: int, seed: int):
    """run(prefix, keys, instances), which runs a family's instances on one
    realization through report.run_instances, and cases(lhs, rhs): both
    maps applied to every flag monomial of degree <= D (rhs None is the
    zero map), outputs compared in descending monomial order."""
    space = real.space
    basis = basis_upto(space, D)
    one = space.table.one()

    def cases(lhs, rhs=None):
        for m in basis:
            inp = SuperPoly(space, {m: one})
            yield (space.format_monomial(m), lhs.apply(inp).terms,
                   {} if rhs is None else rhs.apply(inp).terms)

    def run(prefix, keys, instances):
        return run_instances(seed, prefix, keys, instances, space.table.zero(),
                             _descending, space.format_monomial)

    return run, cases


def check_chevalley(M, N, variant, D, seed=0, sabotage=None) -> list:
    real = FiniteRealization(M, N, sabotage)
    root, table = real.root, real.table
    rank = root.rank
    nodes = range(1, rank + 1)
    run, cases = _runner(real, D, seed)
    base = {"M": M, "N": N, "variant": variant, "D": D}

    t = {i: real.build_t(i) for i in nodes}
    tinv = {i: real.build_t(i, -1) for i in nodes}
    e = {i: real.build_e(i, variant) for i in nodes}
    f = {i: real.build_f(i, variant) for i in nodes}
    signs = (("plus", e, 1), ("minus", f, -1))
    qpos = table.qpow(LinForm(1))
    qneg = table.qpow(LinForm(-1))

    out = run("chevalley.eq1", ("i", "j", "variant"), (
        (dict(base, i=i, j=j), cases(compose(t[i], t[j]), compose(t[j], t[i])))
        for i in nodes for j in range(i, rank + 1)))
    out += run("chevalley.eq2", ("i", "j", "sign", "variant"), (
        (dict(base, i=i, j=j, sign=sign),
         cases(compose(t[i], compose(gen[j], tinv[i])),
               scale_map(gen[j], table.qpow(LinForm(s * root.cartan(i, j))))))
        for i in nodes for j in nodes for sign, gen, s in signs))
    out += run("chevalley.eq3", ("i", "j", "variant"), (
        (dict(base, i=i, j=j),
         cases(graded_commutator(e[i], f[j]),
               real.build_h_bracket(i) if i == j else None))
        for i in nodes for j in nodes))
    out += run("chevalley.eq4", ("i", "j", "sign", "variant"), (
        (dict(base, i=i, j=j, sign=sign),
         cases(graded_commutator(gen[i], graded_commutator(gen[i], gen[j], qneg), qpos)))
        for i, j in root.serre_pairs() for sign, gen, _ in signs))

    def eq5():
        for sign, gen, _ in signs:
            if M - 1 >= 1 and M + 1 <= rank:
                inner = graded_commutator(gen[M], gen[M - 1], qneg)
                mid = graded_commutator(gen[M + 1], inner, qpos)
                yield dict(base, sign=sign), cases(graded_commutator(gen[M], mid))
            else:
                yield dict(base, sign=sign), f"needs nodes {M-1} and {M+1} inside 1..{rank}"

    return out + run("chevalley.eq5", ("sign", "variant"), eq5())


def _intermediate_rhs29(real: FiniteRealization, i: int, j: int):
    nu = real._nu
    atoms = []
    if i == j:
        atoms.append(Atom(
            shift=-real._w(i, rows=range(1, i)),
            brackets=(LinForm.sym(f"l{i}") - real._w(i, rows=range(i, real.root.total + 1)),),
        ))
    if i == j + 1:
        shift = (
            -real._w(i, rows=range(1, i))
            + LinForm.sym(f"l{i-1}")
            - LinForm.theta((i - 1, i), nu(i - 1))
            - real._w(i - 1, cols=range(i + 1, real.root.total + 1))
        )
        atoms.append(Atom(
            shift=shift,
            lowers=((i, i + 1),),
            mult=((i - 1, i),),
            coeff=nu(i),
        ))
    return atoms


def _intermediate_rhs30(real: FiniteRealization, i, ip, j, jp):
    if i != j or ip != jp:
        return []
    nu = real._nu
    shift = (
        real._w(i, rows=range(ip + 1, real.root.total + 1))
        - real._w(i, rows=range(1, ip))
        - LinForm.sym(f"l{i}")
    )
    bracket = LinForm.theta((ip, i), nu(i)) - LinForm.theta((ip, i + 1), nu(i + 1))
    return [Atom(shift=shift, brackets=(bracket,), coeff=nu(i))]


def _intermediate_rhs31(real: FiniteRealization, i, ip, j, jp):
    atoms = []
    nu = real._nu
    base_shift = (
        -real._w(i, rows=range(1, j))
        + LinForm.sym(f"l{j}")
        - LinForm.theta((j, i + 1), nu(i + 1))
        - real._w(j, cols=range(i + 1, real.root.total + 1))
    )
    if ip == j and jp == i + 1:
        atoms.append(Atom(
            shift=base_shift, lowers=((j + 1, i + 1),), mult=((j, i),),
        ))
    if ip == j + 1 and jp == i:
        extra = LinForm.theta((j, i), nu(i) - nu(j))
        atoms.append(Atom(
            shift=base_shift + extra, lowers=((j + 1, i + 1),), mult=((j, i),),
            coeff=-1,
        ))
    return atoms


def check_intermediate(M, N, D, seed=0, sabotage=None) -> list:
    real = FiniteRealization(M, N, sabotage)
    root, space = real.root, real.space
    rank, total = root.rank, root.total
    nodes = range(1, rank + 1)
    run, cases = _runner(real, D, seed)
    base = {"M": M, "N": N, "D": D}

    def bracket_of(a_atom, f_atom):
        return graded_commutator(real._op([a_atom]), real._op([f_atom]))

    # vanishing cross terms; the kind of bracket is part of the prefix
    out = run("intermediate.eq28.kind=e_ii-f1", ("i", "j", "jp"), (
        (dict(base, i=i, j=j, jp=jp),
         cases(bracket_of(real.atom_e_ii(i), real.atom_f1(j, jp))))
        for i in nodes for j in nodes for jp in range(1, j)))
    out += run("intermediate.eq28.kind=e_ii-f3", ("i", "j", "jp"), (
        (dict(base, i=i, j=j, jp=jp),
         cases(bracket_of(real.atom_e_ii(i), real.atom_f3(j, jp))))
        for i in nodes for j in nodes for jp in range(j + 2, total + 1)))
    out += run("intermediate.eq28.kind=e_iip-f2", ("i", "ip", "j"), (
        (dict(base, i=i, ip=ip, j=j),
         cases(bracket_of(real.atom_e_iip(i, ip), real.atom_f2(j))))
        for i in nodes for j in nodes for ip in range(1, i)))

    out += run("intermediate.eq29", ("i", "j"), (
        (dict(base, i=i, j=j),
         cases(bracket_of(real.atom_e_ii(i), real.atom_f2(j)),
               real._op(_intermediate_rhs29(real, i, j))))
        for i in nodes for j in nodes))
    out += run("intermediate.eq30", ("i", "ip", "j", "jp"), (
        (dict(base, i=i, ip=ip, j=j, jp=jp),
         cases(bracket_of(real.atom_e_iip(i, ip), real.atom_f1(j, jp)),
               real._op(_intermediate_rhs30(real, i, ip, j, jp))))
        for i in nodes for ip in range(1, i) for j in nodes for jp in range(1, j)))
    out += run("intermediate.eq31", ("i", "ip", "j", "jp"), (
        (dict(base, i=i, ip=ip, j=j, jp=jp),
         cases(bracket_of(real.atom_e_iip(i, ip), real.atom_f3(j, jp)),
               real._op(_intermediate_rhs31(real, i, ip, j, jp))))
        for i in nodes for ip in range(1, i) for j in nodes
        for jp in range(j + 2, total + 1)))

    def eq33():
        for i in nodes:
            for j in nodes:
                parity = (root.gen_parity(i) + root.gen_parity(j)) % 2
                pieces = [("f2", bracket_of(real.atom_e_ii(i), real.atom_f2(j)))]
                for ip in range(1, i):
                    for jp in range(1, j):
                        pieces.append(("f1", bracket_of(
                            real.atom_e_iip(i, ip), real.atom_f1(j, jp))))
                    for jp in range(j + 2, total + 1):
                        pieces.append(("f3", bracket_of(
                            real.atom_e_iip(i, ip), real.atom_f3(j, jp))))
                rhs = real.build_h_bracket(i) if i == j else None
                for eps_name, eps in (("nu_i", real._nu(i)), ("nu_j", real._nu(j))):
                    for epsp_name, epsp in (("nu_i", real._nu(i)), ("nu_j+1", real._nu(j + 1))):
                        def combined(p, pieces=pieces, eps=eps, epsp=epsp):
                            acc = SuperPoly(space, {})
                            for kind, piece in pieces:
                                part = piece.apply(p)
                                if kind == "f1":
                                    part = part.scale(eps)
                                elif kind == "f3":
                                    part = part.scale(-epsp)
                                acc = acc + part
                            return acc

                        yield (dict(base, i=i, j=j, eps=eps_name, epsp=epsp_name),
                               cases(LinMap(combined, parity), rhs))

    return out + run("intermediate.eq33", ("i", "j", "eps", "epsp"), eq33())


def check_remarks(M, N, D, seed=0) -> list:
    """remark1 and remark2 on the clean realization: a sabotage is never
    passed here, whatever the run's --sabotage."""
    real = FiniteRealization(M, N)
    nodes = range(1, real.root.rank + 1)
    run, cases = _runner(real, D, seed)
    base = {"M": M, "N": N, "D": D}
    sigma = real.parity_map()

    out = run("remark1", ("gen", "i"), (
        (dict(base, gen=gen_name, i=i),
         cases(scale_map(compose(sigma, compose(build(i, "i"), sigma)), real._nu(i + 1)),
               build(i, "ii")))
        for i in nodes for gen_name, build in (("e", real.build_e), ("f", real.build_f))))
    return out + run("remark2", ("j",), (
        (dict(base, j=j), cases(real._op([real.atom_f2_half(j)]), real._op([real.atom_f2(j)])))
        for j in nodes))


def check_bracket(nmax: int = BRACKET_NMAX) -> list:
    """The exponent-splitting bracket identity as relation reports."""
    out = []
    for n in range(1, nmax + 1):
        ok = verify_bracket_identity(n)
        out.append(RelationResult(
            relation_id("bracket.eq32", ("n",), {"n": n}), "pass" if ok else "fail", 1,
            {"n": n}, None if ok else {"element": "formal exponents",
                                       "reason": "sum of shifted brackets != joint bracket"},
        ))
    return out


# Every finite task in run order: (check, the options it reads), run through
# report.run_family.  remarks and bracket read no sabotage, so they run on
# the clean realization under --sabotage.
FAMILIES = {
    "chevalley": (check_chevalley, ("M", "N", "variant", "D", "seed", "sabotage")),
    "intermediate": (check_intermediate, ("M", "N", "D", "seed", "sabotage")),
    "remarks": (check_remarks, ("M", "N", "D", "seed")),
    "bracket": (check_bracket, ()),
}
