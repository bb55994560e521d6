"""Sparse multivariate polynomial algebra over the rationals.

Polynomials are stored as a map from dense exponent tuples to Fraction
coefficients.  Everything here is exact: evaluation, differentiation,
the Laplacian, differential-operator application P(d)Q, decomposition of
a homogeneous polynomial into harmonic layers H_k * |x|^(2k), and exact
single-divisor division.

The scale stays small (a handful of variables, degrees in the teens), so
exponent vectors are plain tuples and no term-order tricks beyond graded
lexicographic division are needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest
from operator import add, sub
from typing import Sequence

import numpy as np

from .exact import _as_fraction, _collect

Monomial = tuple[int, ...]


class ParseError(ValueError):
    """Malformed input text; `line` is the 1-based number of the line at fault."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line


class MultiPoly:
    """Sparse polynomial in ``nvars`` variables with Fraction coefficients.

    Instances are immutable by convention: no method mutates ``terms``
    after construction, so values may be shared freely.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, Fraction] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        terms = terms or {}
        for mono in terms:
            if len(mono) != nvars:
                raise ValueError(f"exponent vector {mono} has wrong length")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
        self.terms = _collect((tuple(m), _as_fraction(c)) for m, c in terms.items())

    # ---------------------------------------------------------- constructors

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: _as_fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return MultiPoly(nvars, {mono: Fraction(1)})

    @staticmethod
    def monomial(nvars: int, expo: Sequence[int], c=1) -> "MultiPoly":
        return MultiPoly(nvars, {tuple(expo): _as_fraction(c)})

    @staticmethod
    def radius2(nvars: int) -> "MultiPoly":
        """|x|^2 = x_1^2 + ... + x_n^2."""
        terms = {}
        for i in range(nvars):
            mono = tuple(2 if j == i else 0 for j in range(nvars))
            terms[mono] = Fraction(1)
        return MultiPoly(nvars, terms)

    @staticmethod
    def radius_power(nvars: int, k: int) -> "MultiPoly":
        """|x|^(2k)."""
        out = MultiPoly.constant(nvars, 1)
        r2 = MultiPoly.radius2(nvars)
        for _ in range(k):
            out = out * r2
        return out

    # ------------------------------------------------------------- structure

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for m in self.terms}
        return len(degs) == 1

    def homogeneous_degree(self) -> int:
        if not self.is_homogeneous() or self.is_zero():
            raise ValueError("not a nonzero homogeneous polynomial")
        return self.total_degree()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ------------------------------------------------------------ arithmetic

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def _arity(self, seq: Sequence, what: str) -> tuple:
        seq = tuple(seq)
        if len(seq) != self.nvars:
            raise ValueError(f"{what} has {len(seq)} entries, expected {self.nvars}")
        return seq

    def _with(self, pairs) -> "MultiPoly":
        """A polynomial in the same variables: the (monomial, coefficient)
        pairs summed by ``_collect``, which drops what cancels."""
        res = object.__new__(MultiPoly)
        res.nvars, res.terms = self.nvars, _collect(pairs)
        return res

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return self._with(chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "MultiPoly":
        return self._with((m, -c) for m, c in self.terms.items())

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return self._with(
                (tuple(map(add, m1, m2)), c1 * c2)
                for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items()
            )
        c = _as_fraction(other)
        return self._with((m, v * c) for m, v in self.terms.items())

    __rmul__ = __mul__

    # -------------------------------------------------------------- calculus

    def partial(self, i: int) -> "MultiPoly":
        alpha = [0] * self.nvars
        alpha[i] = 1
        return self.differentiate(alpha)

    def differentiate(self, alpha: Sequence[int]) -> "MultiPoly":
        """Mixed partial d^alpha, computed termwise: x^m -> perm(m, alpha) x^(m - alpha)."""
        alpha = self._arity(alpha, "multi-index")
        return self._with(
            (tuple(map(sub, mono, alpha)), coef * k)
            for mono, coef in self.terms.items()
            if (k := math.prod(map(math.perm, mono, alpha)))
        )

    # ------------------------------------------------------------ evaluation

    def eval_exact(self, point: Sequence[Fraction]) -> Fraction:
        point = self._arity(point, "point")
        total = Fraction(0)
        for mono, coef in self.terms.items():
            v = coef
            for x, e in zip(point, mono):
                if e:
                    v *= _as_fraction(x) ** e
            total += v
        return total

    def float_evaluator(self):
        """Return a vectorized evaluator: (m, nvars) float array -> (m,) floats.

        Coordinate-major, in the float operations and order of a row-major
        broadcast: each power a term uses is formed once, by ``np.power`` on
        a same-shape exponent array (a scalar 2 would square, an ulp off).
        """
        if not self.terms:
            return lambda pts: np.zeros(len(pts))
        monos = sorted(self.terms)
        coefs = np.array([float(self.terms[m]) for m in monos])
        factors = [[(j, e) for j, e in enumerate(m) if e] or [(0, 0)] for m in monos]
        levels = list(zip_longest(*factors, fillvalue=(0, 0)))  # x_1^0 = 1 pads the short terms
        pairs = sorted(set(chain(*levels)))
        var, exp = np.array(pairs).T
        lead, *rest = np.array([[pairs.index(p) for p in level] for level in levels])

        def ev(pts: np.ndarray) -> np.ndarray:
            cols = np.asarray(pts, dtype=float).T
            powers = np.power(cols.take(var, 0), exp[:, None].repeat(cols.shape[1], 1))
            table = powers.take(lead, 0)
            for column in rest:
                table *= powers.take(column, 0)
            return np.ascontiguousarray(table.T) @ coefs  # row-major: the BLAS sum order depends on layout

        return ev

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            c = self.terms[mono]
            var = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(mono) if e)
            bits.append(f"{c}" + (f"*{var}" if var else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


def laplacian(p: MultiPoly) -> MultiPoly:
    return apply_diffop(MultiPoly.radius2(p.nvars), p)


def apply_diffop(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """P(d) applied to Q: each monomial of P becomes the mixed partial."""
    p._check(q)
    return q._with(
        (mono, coef * c)
        for alpha, coef in p.terms.items()
        for mono, c in q.differentiate(alpha).terms.items()
    )


@dataclass(frozen=True)
class HarmonicComponent:
    """Homogeneous harmonic polynomial of a stated degree."""

    degree: int
    poly: MultiPoly

    def __post_init__(self) -> None:
        if self.poly.is_zero():
            raise ValueError("component polynomial must be nonzero")
        if self.poly.homogeneous_degree() != self.degree:
            raise ValueError("stated degree does not match the polynomial")
        if not laplacian(self.poly).is_zero():
            raise ValueError("component polynomial is not harmonic")


def harmonic_decompose(p: MultiPoly) -> list[tuple[int, MultiPoly]]:
    """Write homogeneous P as sum over k of H_(d-2k) * |x|^(2k), H harmonic.

    Returns the list of (k, H) pairs with H nonzero, ordered by k.  Works by
    recursion on the Laplacian: if P = sum H_k |x|^(2k) then
    lap(P) = sum_k>=1 mu_k H_k |x|^(2k-2) with mu_k = 2k(2d - 2k + n - 2),
    which determines every H_k with k >= 1 from the decomposition of lap(P);
    the harmonic head is the remainder.
    """
    if p.is_zero():
        return []
    n = p.nvars
    d = p.homogeneous_degree()
    if d <= 1:
        return [(0, p)]
    lower = harmonic_decompose(laplacian(p))
    comps: dict[int, MultiPoly] = {}
    rest = MultiPoly.zero(n)
    for t, h in lower:
        k = t + 1
        mu = 2 * k * (2 * d - 2 * k + n - 2)
        hk = h * Fraction(1, mu)
        comps[k] = hk
        rest = rest + hk * MultiPoly.radius_power(n, k)
    head = p - rest
    if not head.is_zero():
        if not laplacian(head).is_zero():
            raise AssertionError("harmonic head failed the Laplacian check")
        comps[0] = head
    return sorted(comps.items())


def _grlex_leading(p: MultiPoly) -> Monomial:
    return max(p.terms, key=lambda m: (sum(m), m))


def divide_exact(p: MultiPoly, d: MultiPoly) -> MultiPoly | None:
    """Return Q with P = D*Q exactly, or None when no such Q exists.

    Single-divisor long division in graded-lexicographic order; the result
    is re-verified by exact multiplication before being returned.
    """
    p._check(d)
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.nvars)
    lead_d = _grlex_leading(d)
    cd = d.terms[lead_d]
    rem = p
    quot = MultiPoly.zero(p.nvars)
    while not rem.is_zero():
        lead_r = _grlex_leading(rem)
        diff = tuple(a - b for a, b in zip(lead_r, lead_d))
        if any(e < 0 for e in diff):
            return None
        qterm = MultiPoly.monomial(p.nvars, diff, rem.terms[lead_r] / cd)
        quot = quot + qterm
        rem = rem - qterm * d
    if not (quot * d - p).is_zero():
        raise AssertionError("division verification failed")
    return quot


# ------------------------------------------------------------- text format

def poly_from_text(text: str, nvars: int) -> MultiPoly:
    """Parse the one-term-per-line format in nvars variables; '#' comments
    and blanks ignored.

    A malformed term raises ParseError with the number of its line in text.
    """
    terms: list[tuple[Monomial, Fraction]] = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            coef = Fraction(fields[0])
            expo = tuple(int(f) for f in fields[1:])
        except (ValueError, ZeroDivisionError):
            raise ParseError(n, f"expected `num[/den] e1 ... en` with den != 0, got {line!r}") from None
        if len(expo) != nvars or min(expo, default=0) < 0:
            raise ParseError(n, f"expected {nvars} non-negative exponents, got {line!r}")
        terms.append((expo, coef))
    return MultiPoly(nvars, _collect(terms))
