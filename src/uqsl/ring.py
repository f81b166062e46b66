"""Sparse Laurent-polynomial arithmetic over the rationals.

Every coefficient in the workbench lives in the ring

    Q[s, s^-1, X_1, X_1^-1, ..., X_r, X_r^-1] / (q - q^-1)^d

where s^2 = q and the X_i are invertible formal symbols (weights Lambda_i,
vacuum weights W_i, the level symbol Gamma = q^(k/2), structure constants
e_ij).  Working in s keeps all exponents integral: paper-style exponents such
as (k+1)/2 become integers on the Gamma and s slots.

A term's exponent vector is packed into a single Python int, 24 bits per
symbol slot, so that monomial multiplication is integer addition.  Elements
carry an explicit denominator power d (meaning terms/(q-q^-1)^d); equality
cross-multiplies denominators and never needs canonical forms.  canonical()
is a normal form: it divides out every (q-q^-1) factor the terms carry, so
the result has the minimal denominator power, and equal elements reach the
same terms whichever computation produced them.  Display goes through it,
so a witness renders the same on every extraction path.

Coefficients are exact and integral: an element is

    terms / (den * (q - q^-1)^dpow)

with int numerators in terms and one positive int denominator den, kept in
lowest terms (gcd(den, every numerator) = 1).  Products and sums of
elements with den = 1 (the large majority) run on int arithmetic alone; the
others cross-multiply and divide out one gcd.  fractions.Fraction appears
only at the edges: a rational scalar entering through rational(),
monomial() or a product, the value subst_numeric returns, and the
coefficients __str__ prints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

_SLOT_BITS = 24
_BASE = 1 << _SLOT_BITS
_MASK = _BASE - 1
_HALF = _BASE >> 1


class RingError(ValueError):
    """Invalid ring construction or evaluation."""


def _exact(x) -> int | Fraction:
    """x itself, checked to be an exact rational (an int or a Fraction)."""
    if isinstance(x, (int, Fraction)):
        return x
    raise RingError(f"not an exact rational: {x!r}")


def _ratio(x) -> tuple:
    """An exact rational scalar as (numerator, denominator), denominator > 0."""
    if type(x) is int:
        return x, 1
    x = _exact(x)
    return x.numerator, x.denominator


class LinForm:
    """Linear form appearing in a q-exponent.

    Holds an exact constant, named formal-exponent coefficients (lambda_i, k,
    w_i), and theta slots keyed by opaque hashables that are substituted with
    integers before the form is exponentiated.
    """

    __slots__ = ("const", "coeffs", "thetas")

    def __init__(self, const=0, coeffs=None, thetas=None):
        self.const = _exact(const)
        self.coeffs = {n: c for n, c in (coeffs or {}).items() if c}
        self.thetas = {t: c for t, c in (thetas or {}).items() if c}

    @classmethod
    def sym(cls, name: str, coeff=1) -> "LinForm":
        """The form coeff*name."""
        return cls(0, {name: _exact(coeff)})

    @classmethod
    def theta(cls, key, coeff=1) -> "LinForm":
        """The form coeff*theta_key."""
        return cls(0, None, {key: _exact(coeff)})

    def __add__(self, other) -> "LinForm":
        if isinstance(other, (int, Fraction)):
            return LinForm(self.const + other, self.coeffs, self.thetas)
        cs = dict(self.coeffs)
        for n, c in other.coeffs.items():
            cs[n] = cs.get(n, 0) + c
        ts = dict(self.thetas)
        for t, c in other.thetas.items():
            ts[t] = ts.get(t, 0) + c
        return LinForm(self.const + other.const, cs, ts)

    __radd__ = __add__

    def __neg__(self) -> "LinForm":
        return self * -1

    def __sub__(self, other) -> "LinForm":
        if isinstance(other, (int, Fraction)):
            return LinForm(self.const - other, self.coeffs, self.thetas)
        return self + (-other)

    def __rsub__(self, other) -> "LinForm":
        return (-self) + other

    def __mul__(self, scalar) -> "LinForm":
        s = _exact(scalar)
        if not s:
            return LinForm(0)
        return LinForm(
            self.const * s,
            {n: c * s for n, c in self.coeffs.items()},
            {t: c * s for t, c in self.thetas.items()},
        )

    __rmul__ = __mul__

    def subs(self, theta_values: Mapping) -> "LinForm":
        """Substitute integer values for all theta slots."""
        const = self.const
        for t, c in self.thetas.items():
            const += c * theta_values.get(t, 0)
        return LinForm(const, self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinForm):
            return NotImplemented
        return (
            self.const == other.const
            and self.coeffs == other.coeffs
            and self.thetas == other.thetas
        )

    __hash__ = None

    def __repr__(self) -> str:
        parts = []
        if self.const:
            parts.append(str(self.const))
        parts += [f"{c}*{n}" for n, c in sorted(self.coeffs.items())]
        parts += [f"{c}*theta{t}" for t, c in sorted(self.thetas.items(), key=repr)]
        return " + ".join(parts) if parts else "0"


class SymbolTable:
    """Immutable table of invertible symbols; slot 0 is always s = q^(1/2).

    Exponent aliases map a formal-exponent name (as used in LinForm
    coefficients) to a (symbol, scale) pair: a coefficient c on that name
    contributes the exponent c*scale on the symbol's slot, which must come
    out integral.  The alias for the constant part is always ("q", 2), i.e.
    q^c = s^(2c).
    """

    __slots__ = ("symbols", "aliases", "_index", "nslots")

    def __init__(self, symbols: Iterable[str], aliases: Mapping[str, tuple] = ()):
        self.symbols = tuple(symbols)
        if not self.symbols or self.symbols[0] != "q":
            raise RingError('symbols[0] must be "q"')
        if len(set(self.symbols)) != len(self.symbols):
            raise RingError("duplicate symbols")
        self._index = {s: i for i, s in enumerate(self.symbols)}
        self.aliases = dict(aliases)
        for name, (sym, scale) in self.aliases.items():
            if sym not in self._index:
                raise RingError(f"alias {name} targets unknown symbol {sym}")
            if not isinstance(scale, int):
                raise RingError(f"alias {name} has non-integer scale")
        self.nslots = len(self.symbols)

    def compatible(self, other: "SymbolTable") -> bool:
        return self is other or self.symbols == other.symbols

    def numeric_point(self, assignment: Mapping[str, Fraction]) -> tuple:
        """An assignment checked and read for subst_numeric: (symbols,
        numerators, denominators), one entry per slot."""
        nums, dens = [], []
        for sym in self.symbols:
            try:
                v = _exact(assignment[sym])
            except KeyError:
                raise RingError(f"no assignment for symbol {sym}") from None
            if not v:
                raise RingError(f"zero assignment for invertible symbol {sym}")
            nums.append(v.numerator)
            dens.append(v.denominator)
        return self.symbols, tuple(nums), tuple(dens)

    # -- exponent packing ------------------------------------------------

    def pack(self, exps: Mapping[str, int]) -> int:
        key = 0
        for sym, e in exps.items():
            if e:
                if abs(e) >= _HALF:
                    raise RingError(f"exponent overflow on {sym}: {e}")
                key += e << (_SLOT_BITS * self._index[sym])
        return key

    def unpack(self, key: int) -> dict:
        out = {}
        for i in range(self.nslots):
            r = key & _MASK
            e = r - _BASE if r >= _HALF else r
            if e:
                out[self.symbols[i]] = e
            key = (key - e) >> _SLOT_BITS
        if key:
            raise RingError("exponent key overflow")
        return out

    def _exp_vector(self, key: int, n: int | None = None) -> tuple:
        """The signed exponent in each slot of key, or in its first n."""
        vec = []
        for _ in range(self.nslots if n is None else n):
            r = key & _MASK
            e = r - _BASE if r >= _HALF else r
            vec.append(e)
            key = (key - e) >> _SLOT_BITS
        return tuple(vec)

    # -- element factories -----------------------------------------------

    def zero(self) -> "RingElem":
        return RingElem(self, {}, 0)

    def one(self) -> "RingElem":
        return RingElem(self, {0: 1}, 0)

    def rational(self, x) -> "RingElem":
        n, d = _ratio(x)
        return RingElem(self, {0: n}, 0, d) if n else RingElem(self, {}, 0)

    def monomial(self, exps: Mapping[str, int], coeff=1) -> "RingElem":
        n, d = _ratio(coeff)
        return RingElem(self, {self.pack(exps): n}, 0, d) if n else RingElem(self, {}, 0)

    def qdiff(self) -> "RingElem":
        """The element q - q^-1."""
        return RingElem(self, {2: 1, -2: -1}, 0)

    def qdiff_inv(self, power: int = 1) -> "RingElem":
        """The element (q - q^-1)^-power."""
        if power < 0:
            raise RingError("negative denominator power")
        return RingElem(self, {0: 1}, power)

    def qpow(self, f: LinForm) -> "RingElem":
        """The monomial q^f; all alias-scaled exponents must be integral."""
        if f.thetas:
            raise RingError("unsubstituted theta slots in exponent")
        key = 0
        e0 = 2 * f.const
        if e0.denominator != 1:
            raise RingError(f"non-half-integer constant exponent {f.const}")
        key += int(e0)
        for name, c in f.coeffs.items():
            try:
                sym, scale = self.aliases[name]
            except KeyError:
                raise RingError(f"unknown exponent symbol {name}") from None
            e = c * scale
            if e.denominator != 1:
                raise RingError(f"exponent {c}*{name} not integral at scale {scale}")
            key += int(e) << (_SLOT_BITS * self._index[sym])
        return RingElem(self, {key: 1}, 0)

    def qint(self, n: int) -> "RingElem":
        """The q-integer [n] expanded without denominator."""
        if n == 0:
            return self.zero()
        sign = 1 if n > 0 else -1
        m = abs(n)
        return RingElem(self, {2 * (m - 1 - 2 * t): sign for t in range(m)}, 0)

    def qbracket(self, f: LinForm) -> "RingElem":
        """[f] = (q^f - q^-f)/(q - q^-1), with denominator power <= 1."""
        if not f.coeffs and not f.thetas and f.const.denominator == 1:
            return self.qint(int(f.const))
        plus = self.qpow(f)
        minus = self.qpow(-f)
        terms = dict(plus.terms)
        for k, c in minus.terms.items():
            terms[k] = terms.get(k, 0) - c
            if not terms[k]:
                del terms[k]
        return RingElem(self, terms, 1)


def _mul_terms(t1: dict, t2: dict) -> dict:
    if not t1 or not t2:
        return {}
    if len(t2) == 1:
        ((k2, c2),) = t2.items()
        if c2 == 1:
            return {k + k2: c for k, c in t1.items()}
        return {k + k2: c * c2 for k, c in t1.items()}
    if len(t1) == 1:
        ((k1, c1),) = t1.items()
        if c1 == 1:
            return {k1 + k: c for k, c in t2.items()}
        return {k1 + k: c1 * c for k, c in t2.items()}
    out: dict = {}
    get = out.get
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            k = k1 + k2
            v = get(k, 0) + c1 * c2
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def _mul_by_qdiff(terms: dict, times: int) -> dict:
    for _ in range(times):
        out: dict = {}
        get = out.get
        for k, c in terms.items():
            v = get(k + 2, 0) + c
            if v:
                out[k + 2] = v
            elif k + 2 in out:
                del out[k + 2]
            v = get(k - 2, 0) - c
            if v:
                out[k - 2] = v
            elif k - 2 in out:
                del out[k - 2]
        terms = out
    return terms


def _div_qdiff(terms: dict) -> dict | None:
    """terms/(q - q^-1) as a term dict, or None when not divisible.

    q - q^-1 = s^-2 (s^4 - 1).  A chain (terms with the same non-s
    exponents and the same s-exponent mod 4) is a polynomial in s^4, which
    s^4 - 1 divides exactly when its coefficients sum to zero; the
    quotient's coefficients are the chain's running sums from the top
    exponent down in steps of 4.  Chains never mix under multiplication by
    s^4 - 1, so terms divide exactly when every chain does.
    """
    chains: dict = {}
    for k, c in terms.items():
        r = k & _MASK
        e = r - _BASE if r >= _HALF else r
        chains.setdefault(k - 4 * (e // 4), {})[k] = c
    out = {}
    for chain in chains.values():
        low = min(chain)
        k, total = max(chain), 0
        while k > low:
            total += chain.get(k, 0)
            if total:
                out[k - 2] = total
            k -= 4
        if total + chain[low]:
            return None
    return out


def _lowest(table: SymbolTable, terms: dict, dpow: int, den: int) -> "RingElem":
    """terms/(den (q - q^-1)^dpow) with den > 0 and terms divided by the
    gcd of den and every numerator."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
    return RingElem(table, terms, dpow, den)


class RingElem:
    """terms/(den (q - q^-1)^dpow).

    terms maps a packed exponent key to a nonzero int numerator; den is a
    positive int sharing no factor with all of them (1 for the zero
    element).  Every operation returns an element in that form, so equal
    values with equal dpow have equal (terms, den).  subst_numeric always
    returns a Fraction.
    """

    __slots__ = ("table", "terms", "dpow", "den")

    def __init__(self, table: SymbolTable, terms: dict, dpow: int, den: int = 1):
        self.table = table
        self.terms = terms
        self.dpow = dpow
        self.den = den

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "RingElem"):
        if not self.table.compatible(other.table):
            raise RingError("mismatched symbol tables")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not RingElem:
            other = self.table.rational(other)
        self._check(other)
        a, b = self, other
        if a.dpow < b.dpow:
            a, b = b, a
        at, bt, den = a.terms, b.terms, a.den
        if a.dpow > b.dpow:
            bt = _mul_by_qdiff(bt, a.dpow - b.dpow)
        if b.den != den:
            g = gcd(den, b.den)
            ua, ub = b.den // g, den // g
            at = {k: c * ua for k, c in at.items()}
            bt = {k: c * ub for k, c in bt.items()}
            den *= ua
        out = dict(at)
        get = out.get
        for k, c in bt.items():
            v = get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return _lowest(a.table, out, a.dpow, den)

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.table, {k: -c for k, c in self.terms.items()}, self.dpow, self.den)

    def __sub__(self, other):
        if type(other) is not RingElem:
            other = self.table.rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is RingElem:
            self._check(other)
            # an operand stored as exactly 1 ({0: 1}, den 1, dpow 0) returns
            # the other one, which the full product would store identically
            t = other.terms
            if len(t) == 1 and t.get(0) == 1 and other.den == 1 and not other.dpow:
                return self
            t = self.terms
            if len(t) == 1 and t.get(0) == 1 and self.den == 1 and not self.dpow:
                return other
            return _lowest(self.table, _mul_terms(self.terms, other.terms),
                           self.dpow + other.dpow, self.den * other.den)
        n, d = _ratio(other)
        if not n:
            return RingElem(self.table, {}, 0)
        if n == d:
            return self
        return _lowest(self.table, {k: v * n for k, v in self.terms.items()},
                       self.dpow, self.den * d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.table.one()
        for _ in range(n):
            out = out * self
        return out

    def inverse(self) -> "RingElem":
        """Inverse of a single-term denominator-free element."""
        if self.dpow != 0 or len(self.terms) != 1:
            raise RingError("only monomials are invertible")
        ((k, c),) = self.terms.items()
        if c < 0:
            return RingElem(self.table, {-k: -self.den}, 0, -c)
        return RingElem(self.table, {-k: self.den}, 0, c)

    def __eq__(self, other) -> bool:
        if type(other) is not RingElem:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.table.rational(other)
        return (self - other).is_zero()

    __hash__ = None

    # -- canonicalization ----------------------------------------------------

    def canonical(self) -> "RingElem":
        """The normal form: the equal element with minimal denominator power.

        Equal elements have equal normal forms, term for term."""
        terms, dpow = self.terms, self.dpow
        while dpow > 0 and terms:
            quot = _div_qdiff(terms)
            if quot is None:
                break
            terms, dpow = quot, dpow - 1
        return _lowest(self.table, terms, dpow if terms else 0, self.den)

    # -- evaluation -----------------------------------------------------------

    def subst_numeric(self, assignment) -> Fraction:
        """Exact rational value; assignment gives the s-value under key "q",
        as a mapping or as read by table.numeric_point, which a caller
        evaluating many elements at one point does only once.

        Evaluated on integers: every term contributes an integer pair, and
        a single Fraction is built from the sum, over den, at the end.
        """
        if not isinstance(assignment, tuple):
            assignment = self.table.numeric_point(assignment)
        symbols, nums, dens = assignment
        if symbols != self.table.symbols:
            raise RingError("assignment read for another symbol table")
        n, d = nums[0], dens[0]
        if self.dpow > 0 and n * n == d * d:
            raise RingError("q = 1 assignment hits the denominator")
        num, den = 0, 1
        for key, tn in self.terms.items():
            td = 1
            i = 0
            while key:  # stops after the last nonzero slot
                r = key & _MASK
                if r:
                    if r < _HALF:
                        tn *= nums[i] ** r
                        td *= dens[i] ** r
                        key -= r
                    else:
                        r = _BASE - r
                        tn *= dens[i] ** r
                        td *= nums[i] ** r
                        key += r
                key >>= _SLOT_BITS
                i += 1
            g = gcd(den, td)
            num = num * (td // g) + tn * (den // g)
            den *= td // g
        if self.dpow > 0:
            # 1/(q - q^-1) = n^2 d^2 / (n^4 - d^4) at s = n/d
            num *= (n * d) ** (2 * self.dpow)
            den *= (n ** 4 - d ** 4) ** self.dpow
        return Fraction(num, den * self.den)

    # -- display ----------------------------------------------------------------

    def _term_str(self, key: int) -> str:
        vec = self.table._exp_vector(key)
        factors = []
        for i in range(1, self.table.nslots):
            e = vec[i]
            if e == 0:
                continue
            sym = self.table.symbols[i]
            factors.append(sym if e == 1 else f"{sym}^{e}")
        e0 = vec[0]
        if e0:
            if e0 % 2 == 0:
                h = e0 // 2
                factors.append("q" if h == 1 else f"q^{h}")
            else:
                factors.append(f"q^({Fraction(e0, 2)})")
        return "*".join(factors)

    def __str__(self) -> str:
        canon = self.canonical()
        if not canon.terms:
            return "0"
        keys = sorted(canon.terms, key=canon.table._exp_vector, reverse=True)
        parts = []
        for k in keys:
            c = Fraction(canon.terms[k], canon.den)
            body = canon._term_str(k)
            mag = abs(c)
            if body:
                cs = body if mag == 1 else f"{mag}*{body}"
            else:
                cs = str(mag)
            parts.append(("-" if c < 0 else "+", cs))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        if canon.dpow:
            denom = "(q - q^-1)"
            if canon.dpow > 1:
                denom += f"^{canon.dpow}"
            return f"({text}) / {denom}"
        return text

    __repr__ = __str__


# -- prebuilt tables ---------------------------------------------------------


def finite_symbols(rank: int) -> SymbolTable:
    """Table for the q-difference realization: q and weights Lambda_i."""
    syms = ["q"] + [f"L{i}" for i in range(1, rank + 1)]
    aliases = {f"l{i}": (f"L{i}", 1) for i in range(1, rank + 1)}
    return SymbolTable(syms, aliases)


def affine_symbols(k: int | None = None) -> SymbolTable:
    """Table for the free-boson realization.

    With k=None the level stays formal through Gamma = q^(k/2); an integer k
    folds the level into the q slot instead.
    """
    syms = ["q", "W1", "W2", "e11", "e12", "e21", "e22"]
    aliases = {"w1": ("W1", 1), "w2": ("W2", 1)}
    if k is None:
        syms.insert(1, "G")
        aliases["k"] = ("G", 2)
    else:
        aliases["k"] = ("q", 2 * k)
    return SymbolTable(syms, aliases)


def bracket_symbols(n: int) -> SymbolTable:
    """Table with formal exponents a, b_1..b_n for the q-bracket identity."""
    syms = ["q", "A"] + [f"B{i}" for i in range(1, n + 1)]
    aliases = {"a": ("A", 1)}
    aliases.update({f"b{i}": (f"B{i}", 1) for i in range(1, n + 1)})
    return SymbolTable(syms, aliases)


def verify_bracket_identity(n: int) -> bool:
    """Check [a]q^(sum b_i) + sum_i [b_i]q^(-a + sum_{j<i}b_j - sum_{j>i}b_j)
    = [a + sum b_i] as an exact ring identity in formal exponents."""
    if n < 1:
        raise RingError("n must be >= 1")
    table = bracket_symbols(n)
    a = LinForm.sym("a")
    bs = [LinForm.sym(f"b{i}") for i in range(1, n + 1)]
    bsum = LinForm(0)
    for b in bs:
        bsum = bsum + b
    lhs = table.qbracket(a) * table.qpow(bsum)
    for i in range(n):
        expo = -a
        for j in range(n):
            if j < i:
                expo = expo + bs[j]
            elif j > i:
                expo = expo - bs[j]
        lhs = lhs + table.qbracket(bs[i]) * table.qpow(expo)
    rhs = table.qbracket(a + bsum)
    return lhs == rhs
