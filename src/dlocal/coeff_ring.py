"""Exact arithmetic in Z[p, 1/p][g_1, ..., g_{n-1}].

The Gauss-sum symbols g_k stay formal: g_0 is identified with the constant
-1, indices reduce mod n when a symbol is constructed, and no further
relations among the g_k are imposed.  An element is a finite sum of terms

    (Laurent polynomial in p) * g_1^{e_1} * ... * g_{n-1}^{e_{n-1}},

stored as a map from the g-exponent vector (a tuple of length n-1) to a
sparse Laurent polynomial {p-exponent: integer coefficient}.  Canonical
form keeps no zero coefficients and no empty polynomials, so equality of
canonical forms is exact equality in the ring.  For n = 1 the g-exponent
vector is empty and elements are plain Laurent polynomials in p.

Instances are immutable by convention: every operation returns a fresh
element and nothing mutates ``terms`` after construction.  The ring
operations share one kernel, ``_mul_add``, and wrap its canonical results
with ``RingElem._wrap``, which skips the checks of ``__init__``; those
stay for elements built from outside (user code, ``from_json_obj``), which
reject a value that is not an integer, or a negative g-exponent, rather
than truncate it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .root_data import _at_least, _int


def _mul_add(out, a, b) -> None:
    """out += a * b on canonical term dicts, keeping ``out`` canonical.

    ``out`` is mutated and must be private to the caller: neither ``a`` nor
    ``b``, nor the terms of an element anyone else holds.
    """
    for g1, poly1 in a.items():
        for g2, poly2 in b.items():
            g = tuple(map(add, g1, g2))
            acc = out.get(g)
            if acc is None:
                acc = out[g] = {}
            for e2, c2 in poly2.items():
                for e1, c1 in poly1.items():
                    e = e1 + e2
                    c = acc.get(e, 0) + c1 * c2
                    if c:
                        acc[e] = c
                    else:
                        del acc[e]
            if not acc:
                del out[g]


def _degree(n) -> int:
    """``n`` as a cover degree, an int >= 1; anything else raises ValueError."""
    return _at_least(n, 1, "cover degree n")


@lru_cache(maxsize=None)
def _unit_terms(n: int):
    """The terms of 1; shared, so never passed as ``out``."""
    return {(0,) * (n - 1): {0: 1}}


class RingElem:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        degree = _degree(n)
        canonical: dict[tuple[int, ...], dict[int, int]] = {}
        for gmono, poly in (terms or {}).items():
            exps = tuple(map(_int, gmono))
            if len(exps) != degree - 1:
                raise ValueError(
                    f"g-exponent vector {gmono} has length {len(exps)}, expected {degree - 1}"
                )
            if None in exps or any(e < 0 for e in exps):
                raise ValueError(f"g-exponents must be integers >= 0, got {gmono}")
            items = [tuple(map(_int, item)) for item in poly.items()]
            if any(None in item for item in items):
                raise ValueError(f"p-exponents and coefficients must be integers, got {poly}")
            cleaned = {e: c for e, c in items if c != 0}
            if cleaned:
                canonical[exps] = cleaned
        self.n = degree
        self.terms = canonical

    @classmethod
    def _wrap(cls, n: int, terms) -> "RingElem":
        """An element owning ``terms``, which must be canonical; no checks, no copy."""
        elem = object.__new__(cls)
        elem.n = n
        elem.terms = terms
        return elem

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "RingElem":
        return cls(n)

    @classmethod
    def integer(cls, c: int, n: int) -> "RingElem":
        n = _degree(n)
        return cls(n, {(0,) * (n - 1): {0: c}})

    @classmethod
    def one(cls, n: int) -> "RingElem":
        return cls.integer(1, n)

    @classmethod
    def p_power(cls, e: int, n: int) -> "RingElem":
        """The monomial p^e (e may be negative)."""
        n = _degree(n)
        return cls(n, {(0,) * (n - 1): {e: 1}})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "RingElem":
        if isinstance(other, (int, float)):
            value = _int(other)
            if value is None:
                raise ValueError(f"a ring scalar must be an integer, got {other!r}")
            return RingElem.integer(value, self.n)
        if isinstance(other, RingElem):
            if other.n != self.n:
                raise ValueError(f"modulus mismatch: {self.n} vs {other.n}")
            return other
        return NotImplemented

    def __add__(self, other) -> "RingElem":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {g: dict(poly) for g, poly in self.terms.items()}
        _mul_add(out, other.terms, _unit_terms(self.n))
        return RingElem._wrap(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "RingElem":
        return RingElem._wrap(
            self.n, {g: {e: -c for e, c in poly.items()} for g, poly in self.terms.items()}
        )

    def __sub__(self, other) -> "RingElem":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RingElem":
        return (-self) + other

    def __mul__(self, other) -> "RingElem":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, ...], dict[int, int]] = {}
        _mul_add(out, self.terms, other.terms)
        return RingElem._wrap(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RingElem":
        k = _at_least(k, 0, "exponent")
        result = RingElem.one(self.n)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- evaluation --------------------------------------------------------

    def evaluate(self, p_value, g_values=()) -> Fraction:
        """Substitute rational values for p and every g_k."""
        from fractions import Fraction

        values = self.eval_p(p_value)
        g_values = tuple(Fraction(v) for v in g_values)
        if len(g_values) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} g-values, got {len(g_values)}")
        total = Fraction(0)
        for gmono, value in values.items():
            for gv, e in zip(g_values, gmono):
                value *= gv**e
            total += value
        return total

    def eval_p(self, p_value) -> dict[tuple[int, ...], Fraction]:
        """Substitute a rational p only, keeping the g-monomials formal."""
        from fractions import Fraction

        p_value = Fraction(p_value)
        if p_value == 0:
            raise ValueError("p must be nonzero")
        out = {}
        for gmono, poly in sorted(self.terms.items()):
            value = sum((c * p_value**e for e, c in poly.items()), Fraction(0))
            if value:
                out[gmono] = value
        return out

    # -- serialization -----------------------------------------------------

    def to_json_obj(self):
        """``to_json_str`` parsed: {"n", "terms": [{"g", "p": [[c, e], ...]}, ...]}."""
        import json

        return json.loads(self.to_json_str())

    def to_json_str(self) -> str:
        """Compact JSON text, terms sorted by g-monomial then p-exponent."""
        terms = ",".join(
            f'{{"g":[{",".join(map(str, g))}],"p":['
            + ",".join(f"[{c},{e}]" for e, c in sorted(poly.items()))
            + "]}"
            for g, poly in sorted(self.terms.items())
        )
        return f'{{"n":{self.n},"terms":[{terms}]}}'

    @classmethod
    def from_json_obj(cls, obj) -> "RingElem":
        """Read ``to_json_obj``'s form; a missing key, a value of the wrong
        shape, or a repeated g-monomial or p-exponent raises ValueError."""
        try:
            terms = {}
            for t in obj["terms"]:
                g, poly = tuple(t["g"]), {e: c for c, e in t["p"]}
                if g in terms or len(poly) != len(t["p"]):
                    raise ValueError(f"repeated g-monomial or p-exponent in the term {t}")
                terms[g] = poly
            n = obj["n"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed ring element JSON: {type(exc).__name__}: {exc}") from exc
        return cls(n, terms)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for gmono, poly in sorted(self.terms.items()):
            gstr = _gmono_str(gmono)
            lstr = _laurent_str(poly)
            if not gstr:
                parts.append(lstr)
            elif lstr == "1":
                parts.append(gstr)
            elif lstr == "-1":
                parts.append("-" + gstr)
            elif len(poly) == 1:
                parts.append(f"{lstr}*{gstr}")
            else:
                parts.append(f"({lstr})*{gstr}")
        out = parts[0]
        for part in parts[1:]:
            out += part if part.startswith("-") else "+" + part
        return out

    def __repr__(self) -> str:
        return f"RingElem(n={self.n}, {self})"


def _laurent_str(poly: dict[int, int]) -> str:
    chunks = []
    for e, c in sorted(poly.items(), reverse=True):
        if e == 0:
            body = str(abs(c))
        else:
            pe = "p" if e == 1 else f"p^{e}"
            body = pe if abs(c) == 1 else f"{abs(c)}*{pe}"
        sign = "-" if c < 0 else ("+" if chunks else "")
        chunks.append(sign + body)
    return "".join(chunks)


def _gmono_str(gmono: tuple[int, ...]) -> str:
    pieces = []
    for idx, e in enumerate(gmono):
        if e == 0:
            continue
        pieces.append(f"g{idx + 1}" if e == 1 else f"g{idx + 1}^{e}")
    return "*".join(pieces)


def gauss_symbol(k: int, n: int) -> RingElem:
    """The symbol g_{k mod n}, with g_0 eliminated as the constant -1."""
    n = _degree(n)
    k = _at_least(k, 0, "Gauss symbol index") % n
    if k == 0:
        return RingElem.integer(-1, n)
    gmono = (0,) * (k - 1) + (1,) + (0,) * (n - 1 - k)
    return RingElem(n, {gmono: {0: 1}})
