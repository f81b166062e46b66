"""Supercommutative polynomials in the flag coordinates x_ij.

Variables are the pairs (i, j) with 1 <= i < j <= M+N, ordered
lexicographically; a variable is odd when its indices straddle the even/odd
boundary, and odd variables square to zero.  Monomials are dense exponent
tuples in that fixed order, with all signs handled at multiplication time by
counting inversions between odd letters.

Coefficients are RingElem values, so weights and q stay formal throughout.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .ring import LinForm, RingElem, SymbolTable
from .structure import RootData


class FlagSpace:
    """Fixed variable order and parity data for one (M|N) shape."""

    __slots__ = ("root", "table", "vars", "index", "parity")

    def __init__(self, root: RootData, table: SymbolTable):
        self.root = root
        self.table = table
        self.vars = tuple(
            (i, j)
            for i in range(1, root.total + 1)
            for j in range(i + 1, root.total + 1)
        )
        self.index = {v: p for p, v in enumerate(self.vars)}
        self.parity = tuple(root.var_parity(i, j) for i, j in self.vars)

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def zero_exp(self) -> tuple:
        return (0,) * self.nvars

    def monomial_parity(self, exps: tuple) -> int:
        p = 0
        for pos, e in enumerate(exps):
            if self.parity[pos]:
                p ^= e & 1
        return p

    def format_monomial(self, exps: tuple) -> str:
        parts = []
        for pos, e in enumerate(exps):
            if not e:
                continue
            i, j = self.vars[pos]
            name = f"x{i}{j}" if self.root.total < 10 else f"x{i}_{j}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def parse_monomial(self, text: str) -> tuple:
        """Parse "x12^2*x13" (or "1") into an exponent tuple."""
        text = text.strip()
        exps = [0] * self.nvars
        if text == "1":
            return tuple(exps)
        for factor in text.split("*"):
            factor = factor.strip()
            name, caret, pow_s = factor.partition("^")
            try:
                e = int(pow_s) if caret else 1
            except ValueError:
                raise ValueError(f"exponent of {factor!r} is not an integer in {text!r}") from None
            if not name.startswith("x"):
                raise ValueError(f"bad variable {factor!r}")
            body = name[1:]
            if "_" in body:
                i_s, _, j_s = body.partition("_")
                i, j = int(i_s), int(j_s)
            elif len(body) == 2:
                i, j = int(body[0]), int(body[1])
            else:
                raise ValueError(f"bad variable {factor!r}")
            if (i, j) not in self.index:
                raise ValueError(f"unknown coordinate x_{i}{j}")
            if e < 0:
                raise ValueError(f"negative exponent in {factor!r}")
            pos = self.index[(i, j)]
            if self.parity[pos] and exps[pos] + e > 1:
                raise ValueError(f"odd coordinate squared in {factor!r}")
            exps[pos] += e
        return tuple(exps)


def _merge_sign(space: FlagSpace, a: tuple, b: tuple):
    """Exponent sum and Koszul sign for placing monomial a left of b.

    Each odd letter of b must cross every odd letter of a sitting at a
    strictly later position; each crossing contributes one sign flip.
    """
    sign = 1
    odd_a_suffix = [0] * (space.nvars + 1)
    for pos in range(space.nvars - 1, -1, -1):
        odd_a_suffix[pos] = odd_a_suffix[pos + 1] + (
            a[pos] & 1 if space.parity[pos] else 0
        )
    out = []
    for pos in range(space.nvars):
        ea, eb = a[pos], b[pos]
        if space.parity[pos]:
            if (ea and eb) or ea > 1 or eb > 1:
                return None, 0
            if eb & 1 and odd_a_suffix[pos + 1] & 1:
                sign = -sign
        out.append(ea + eb)
    return tuple(out), sign


class SuperPoly:
    """Finite RingElem-linear combination of flag monomials."""

    __slots__ = ("space", "terms")

    def __init__(self, space: FlagSpace, terms: Mapping[tuple, RingElem] = ()):
        self.space = space
        self.terms = {m: c for m, c in dict(terms).items() if not c.is_zero()}

    @classmethod
    def variable(cls, space: FlagSpace, i: int, j: int) -> "SuperPoly":
        exps = list(space.zero_exp())
        exps[space.index[(i, j)]] = 1
        return cls(space, {tuple(exps): space.table.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return SuperPoly(self.space, out)

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "SuperPoly":
        if isinstance(c, (int,)) and c == 1:
            return self
        return SuperPoly(self.space, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: "SuperPoly") -> "SuperPoly":
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m, sign = _merge_sign(self.space, ma, mb)
                if m is None:
                    continue
                c = ca * cb if sign > 0 else -(ca * cb)
                if m in out:
                    out[m] = out[m] + c
                else:
                    out[m] = c
        return SuperPoly(self.space, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- operators used by the realized generators -------------------------

    def map_terms(self, fn: Callable[[tuple, RingElem], Iterable]) -> "SuperPoly":
        out: dict = {}
        for m, c in self.terms.items():
            for m2, c2 in fn(m, c):
                if c2.is_zero():
                    continue
                if m2 in out:
                    out[m2] = out[m2] + c2
                else:
                    out[m2] = c2
        return SuperPoly(self.space, out)

    def _lowered(self, i: int, j: int, even_coeff) -> "SuperPoly":
        """Lower the exponent e of x_ij by one.  Even coordinates scale by
        even_coeff(c, e); an odd one is a left derivative, whose Koszul
        sign is the parity of the odd letters standing before it."""
        space = self.space
        pos = space.index[(i, j)]
        odd = space.parity[pos]

        def lowering(m, c):
            e = m[pos]
            if not e:
                return
            m2 = m[:pos] + (e - 1,) + m[pos + 1 :]
            if odd:
                yield m2, (-c if space.monomial_parity(m[:pos]) else c)
            else:
                yield m2, even_coeff(c, e)

        return self.map_terms(lowering)

    def dx(self, i: int, j: int) -> "SuperPoly":
        """Left partial derivative by x_ij with Koszul sign."""
        return self._lowered(i, j, lambda c, e: c * e)

    def lower(self, i: int, j: int) -> "SuperPoly":
        """q-deformed lowering by x_ij: exponent e maps to [e] x^(e-1) for
        even coordinates and to the signed left derivative for odd ones."""
        qint = self.space.table.qint
        return self._lowered(i, j, lambda c, e: c * qint(e))

    def qshift(self, form: LinForm) -> "SuperPoly":
        """Multiply each monomial by q^(form at that monomial's exponents);
        theta slots in the form are keyed by coordinate pairs (i, j)."""
        table = self.space.table
        index = self.space.index

        def shift(m, c):
            vals = {v: m[p] for v, p in index.items()}
            yield m, c * table.qpow(form.subs(vals))

        return self.map_terms(shift)

    def qbracket_diag(self, form: LinForm) -> "SuperPoly":
        """Multiply each monomial by the q-bracket of the evaluated form."""
        table = self.space.table
        index = self.space.index

        def shift(m, c):
            vals = {v: m[p] for v, p in index.items()}
            yield m, c * table.qbracket(form.subs(vals))

        return self.map_terms(shift)

    def scale_diag(self, fn: Callable[[tuple], int]) -> "SuperPoly":
        """Multiply each monomial by an integer depending on its exponents."""
        def scaler(m, c):
            yield m, c * fn(m)

        return self.map_terms(scaler)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            mono = self.space.format_monomial(m)
            cs = str(c)
            if cs == "1" and mono != "1":
                parts.append(mono)
            elif mono == "1":
                parts.append(cs)
            else:
                wrapped = cs if ("+" not in cs and " - " not in cs) else f"({cs})"
                parts.append(f"{wrapped}*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


def basis_upto(space: FlagSpace, max_degree: int) -> list:
    """All monomials of total degree <= max_degree, odd exponents <= 1."""
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")
    out = [space.zero_exp()]
    frontier = [space.zero_exp()]
    for _ in range(max_degree):
        nxt = []
        for m in frontier:
            # extend in the last-nonzero position or later to avoid repeats
            start = 0
            for p in range(space.nvars - 1, -1, -1):
                if m[p]:
                    start = p
                    break
            for p in range(start, space.nvars):
                if space.parity[p] and m[p] >= 1:
                    continue
                m2 = m[:p] + (m[p] + 1,) + m[p + 1 :]
                nxt.append(m2)
        out.extend(nxt)
        frontier = nxt
    return out
