"""Exact linear algebra: one sparse elimination kernel.

Linear maps never come here: group elements and infinitesimal generators
are monomial sparse rows (`poly.LinearAction.rows`), and nothing here
eliminates, multiplies or inverts them; an element is invertible when its
rows hit distinct columns.  Every elimination is of polynomial and map
spaces and goes through one sparse kernel, `Echelon`: rows are dicts
keyed by arbitrary sortable column keys over Q, eliminated fraction-free
(integer rows, gcd-reduced).  It answers membership, keeps one row per
pivot column, returns the span's reduced row-echelon basis, and reads
nullspaces straight off that basis: one vector per free column, with
entry 1 there and minus the column's entry of each reduced row at that
row's pivot.  Determinism: pivot columns are the unique rank-increase
columns of the system, independent of row order, and both returned bases
are unique for their space.  Polynomials, maps and exponent-tuple terms
become rows through one emitter of column keys, `vectorize_terms`.

Entries are exact and never floats.  Rational entries follow the
GaussianRational convention: an int when integral, a Fraction only when
the denominator is above 1.  `Echelon` takes an all-int row as it is,
keeps every stored and reduced row in integers, and builds a Fraction only
where the final division by a pivot entry leaves one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence

from .poly import (
    PolyMap,
    Polynomial,
    grlex_key,
    polymap_from_terms,
    polymap_terms,
    polynomial_from_terms,
    terms_of,
)

ColKey = Hashable
SparseRow = dict


# -- sparse fraction-free elimination over Q ---------------------------------


def _to_integer_row(row: SparseRow) -> dict:
    """Clear denominators and divide by the gcd; canonical sign on the lead.

    An all-int row is taken as it is; Fractions and lcm are only for rows
    that carry a denominator.  A row with one nonzero entry is a unit row.
    """
    row = {k: v for k, v in row.items() if v}
    if len(row) < 2:
        return dict.fromkeys(row, 1)
    if any(type(v) is not int for v in row.values()):
        rationals = [Fraction(v) for v in row.values()]
        denom = lcm(*(q.denominator for q in rationals))
        row = {k: q.numerator * (denom // q.denominator) for k, q in zip(row, rationals)}
    return _primitive(row)


def _primitive(ints: dict) -> dict:
    """A nonzero integer row divided by its gcd, its lead entry made positive."""
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
    return ints


def _combine(scale_r, row_r: dict, scale_p, row_p: dict) -> dict:
    out = {k: scale_r * v for k, v in row_r.items()}
    for k, v in row_p.items():
        acc = out.get(k, 0) + scale_p * v
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)
    return out


class Echelon:
    """Incrementally built echelon form with integer gcd-reduced rows."""

    def __init__(self, rows: Iterable[SparseRow] = ()):
        self.pivots: dict = {}
        for row in rows:
            self.insert(row)

    def residual(self, row: SparseRow) -> dict:
        r = _to_integer_row(row)
        while r:
            col = min(r)
            pivot = self.pivots.get(col)
            if pivot is None:
                return r
            a, b = r[col], pivot[col]
            g = gcd(a, b)
            r = _combine(b // g, r, -(a // g), pivot)
            if r:
                r = _primitive(r)
        return r

    def insert(self, row: SparseRow) -> bool:
        """Reduce and keep the row; True if it increased the rank."""
        r = self.residual(row)
        if not r:
            return False
        self.pivots[min(r)] = r
        return True

    def contains(self, row: SparseRow) -> bool:
        return not self.residual(row)

    def reduced_rows(self) -> list[dict]:
        """The reduced row-echelon basis of the span, in pivot order.

        Each row has entry 1 at its pivot column and 0 at every other pivot
        column.  That basis is unique for the span, so it does not depend on
        the order in which rows were inserted.  Entries are ints, and
        Fractions only where the division by the pivot entry leaves one.
        """
        reduced: dict = {}
        # a stored row holds only pivot columns to the right of its own, and
        # reduced rows are zero on other pivots: one pass right to left clears
        # them, fraction-free, with each row kept primitive and its pivot > 0
        for pc in sorted(self.pivots, reverse=True):
            row = self.pivots[pc]
            for col in [c for c in row if c != pc and c in reduced]:
                a, b = row[col], reduced[col][col]
                g = gcd(a, b)
                row = _primitive(_combine(b // g, row, -(a // g), reduced[col]))
            reduced[pc] = row
        out = []
        for pc in sorted(reduced):
            row = reduced[pc]
            p = row[pc]
            out.append({k: v // p if v % p == 0 else Fraction(v, p) for k, v in row.items()})
        return out

    def nullspace(self, columns: Sequence[ColKey]) -> list[dict]:
        """Canonical reduced-echelon basis of the solution space.

        `columns` must list every unknown; each basis vector has entry 1 at
        its free column and 0 at the other free columns.  It is read off
        `reduced_rows()`: a reduced row R with pivot pc holds only free
        columns besides pc, so the vector of free column f takes -R[f] at pc.
        """
        basis = {c: {c: 1} for c in columns if c not in self.pivots}
        for row in self.reduced_rows():
            pc = min(row)
            for col, value in row.items():
                if col != pc:
                    basis[col][pc] = -value
        return list(basis.values())


# -- vector encodings of polynomials and maps --------------------------------
#
# Column keys are (component, grlex key, part) with part 0 for the real and
# 1 for the imaginary piece of a coefficient; component -1 is used for bare
# polynomials.  `vectorize_terms` is the one place that spells them, so any
# two encodings of objects over the same coordinate space, from Polynomials
# or from exponent-tuple terms, are directly comparable.


def vectorize_terms(components: Iterable[tuple[int, Mapping]]) -> dict:
    """The column vector of (component, terms) pairs, terms as in `poly.mul_terms`."""
    vec: dict = {}
    for comp, terms in components:
        for mono, (re, im) in terms.items():
            key = grlex_key(mono)
            if re:
                vec[(comp, key, 0)] = re
            if im:
                vec[(comp, key, 1)] = im
    return vec


def vectorize_polynomial(p: Polynomial) -> dict:
    return vectorize_terms(((-1, terms_of(p)),))


def vectorize_polymap(g: PolyMap) -> dict:
    return vectorize_terms(enumerate(polymap_terms(g)))


def vectorize(obj) -> dict:
    if isinstance(obj, Polynomial):
        return vectorize_polynomial(obj)
    if isinstance(obj, PolyMap):
        return vectorize_polymap(obj)
    raise TypeError(f"cannot vectorize {type(obj).__name__}")


def _terms_from_vector(vec: SparseRow, components: range) -> list[dict]:
    """The terms of each component of a vector; the inverse of `vectorize_terms`."""
    comps: list[dict] = [dict() for _ in components]
    for (comp, (_deg, mono), part), value in vec.items():
        if comp not in components:
            raise ValueError(f"vector has a component {comp} outside {components}")
        terms = comps[comp - components.start]
        re, im = terms.get(mono, (0, 0))
        terms[mono] = (value, im) if part == 0 else (re, value)
    return comps


def polynomial_from_vector(vec: SparseRow, nvars: int) -> Polynomial:
    return polynomial_from_terms(nvars, _terms_from_vector(vec, range(-1, 0))[0])


def polymap_from_vector(vec: SparseRow, nblocks: int) -> PolyMap:
    return polymap_from_terms(2 * nblocks + 2, _terms_from_vector(vec, range(nblocks + 2)))
