"""Degree-graded brute-force computation of symmetry-constrained spaces.

Independent certification path: instead of transporting generators, each
degree slice is computed from scratch as the exact rational nullspace of
the defining linear identities.

A slice is kept as rows: `DegreeSlice.rows` holds independent vectors in
the column keys of `linalg.vectorize`, and its dimension is their count.
The sorted Polynomial/PolyMap `basis` is derived from the rows only when
something reads it (the golden artifacts, the tests, or a witness), so a
`verify` run that certifies builds no Polynomial or PolyMap here.

`slice_space` compiles its system once per call, on exponent tuples and
exact integers.  A torus weight reads only the z/zb exponents, so a walk
over the rotation blocks enumerates only the torus-admissible monomials,
and the resource bound counts those (component, monomial) pairs: the
unknowns actually solved for.  Each parameter is one or two records
(component, monomial, coefficient).  The rows of the system are
`(tag, component, monomial, part) -> {parameter: value}`, with ints, and
Fractions only where an element has a denominator.  The shear's rows come
first: each record's image under x1 d/dx2 is an exponent shift, with no
substitution.  A parameter alone in a one-entry shear row is forced to
zero, and is dropped.  Every element of the group is a signed monomial
map, so each record of a parameter left has its image under
g.A - sigma A.g (the one-term images of `poly.Substitution`, and
`output_columns` for A.g) written straight into the rows.  Those rows and
the multi-entry shear rows, less the forced parameters, go to
`linalg.Echelon`.  A row left with one entry forces its parameter too,
and each such parameter goes in once, as a unit row.  The nullspace is
taken over the parameters left, in their order.  It is the nullspace of
the whole system: each forced column is a pivot of it and vanishes on
every solution, and every other column keeps its place in the order.  So
the free columns are the same, and so is the unique reduced-echelon
basis, whatever the order of the rows.  Each nullspace vector becomes a
slice row through the fixed columns of the parameters.
`module_slice` keeps the reduced span of `symmetry_ops.module_rows` over
the one `ProductTable` the generator set keeps, so a sweep over degrees
builds each product once.  `spans_equal` decides on rows and builds the
bases only to name a witness.

The tests hold the independent reference, a naive oracle that shares
neither this row assembly nor `linalg.Echelon`, and cross-check the two
paths, the compiled rows against PolyMap rows, and both against the
membership predicates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import DimensionError, ResourceLimit
from .group import GroupContext
from .linalg import (
    Echelon,
    polymap_from_vector,
    polynomial_from_vector,
    vectorize,
)
from .poly import (
    Monomial,
    Substitution,
    conj_monomial,
    grlex_key,
    nblocks_of,
    output_columns,
    polymap_terms,
)
from .symmetry_ops import module_rows

DEFAULT_MONOMIAL_LIMIT = 200_000

FUNCTION_KINDS = ("invariant", "anti_invariant")
MAP_KINDS = ("equivariant", "reversible_equivariant")


@dataclass(frozen=True)
class DegreeSlice:
    """One homogeneous symmetry-constrained space, kept as rows.

    `rows` are `linalg.vectorize` vectors of elements on `nvars`
    coordinates; the engine's slices hold independent rows, so the
    dimension is their count.  `basis` is the elements of the rows, sorted
    by `sort_key`, built the first time it is read.
    """

    degree: int
    kind: str
    rows: tuple
    nvars: int

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple:
        if self.kind in FUNCTION_KINDS:
            elements = [polynomial_from_vector(row, self.nvars) for row in self.rows]
        else:
            nblocks = nblocks_of(self.nvars)
            elements = [polymap_from_vector(row, nblocks) for row in self.rows]
        return tuple(sorted(elements, key=lambda e: e.sort_key()))


def _linear_part_of(context: GroupContext):
    linear = context.continuous
    if linear is None:
        raise DimensionError("oracle contexts must carry continuous group data")
    return linear


def _slice_limit(limit: int, degree: int) -> ResourceLimit:
    return ResourceLimit(
        f"more than {limit} admissible (component, monomial) pairs "
        f"in the degree-{degree} oracle slice"
    )


def _torus_monomials(
    linear, degree: int, component: int | None, used: int, limit: int
) -> list:
    """Degree-d monomials with the torus character of the given component.

    component None means weight zero (polynomial functions); otherwise the
    stored component index (0, 1 for x; 2+j for z_{j+1}).  A torus weight
    reads only the z/zb exponents, so the walk picks the exponents a, b of
    z_j, zb_j block by block and spreads the remaining degree over x1 and
    x2 in every way.  Block j moves weight row t by w_t (a - b), so the walk
    loops over the sum s = a + b and the difference c = a - b, and takes
    only the c (of the parity of s) that leave a weight the later blocks can
    still reach with the degree left; where they carry no weight of a row,
    that fixes c.  So every branch it takes is reachable, and its work is
    bounded by the monomials it stores.  Raises ResourceLimit once `used`
    plus the monomials found would pass `limit`, checked before each leaf
    is stored.  At weight zero it first counts the monomials
    x1^p x2^q |z1|^(2k), always admissible: sum over k <= d/2 of
    (d - 2k + 1), which is (m + 1)(d + 1 - m) for m = d // 2; if those
    alone pass the limit, the walk would only reach the same verdict later,
    so it is not started.
    """
    rows = linear.torus_weight_rows()
    nblocks = linear.nblocks
    targets = tuple(
        0 if component is None else linear.component_weight(component, weights)
        for weights in rows
    )

    def over_limit(count: int):
        if used + count > limit:
            raise _slice_limit(limit, degree)

    if nblocks and not any(targets):
        half = degree // 2
        over_limit((half + 1) * (degree + 1 - half))
    # reach[j][t]: the most one unit of degree in blocks j.. moves weight t
    reach = [
        [max((abs(w) for w in weights[j:]), default=0) for weights in rows]
        for j in range(nblocks + 1)
    ]
    if any(abs(n) > degree * r for n, r in zip(targets, reach[0])):
        return []
    out: list = []

    def walk(j: int, left: int, zpart: tuple, need: tuple):
        if j == nblocks:
            # reach is 0 past the last block, so need is 0 here
            over_limit(len(out) + left + 1)
            out.extend((a, left - a) + zpart for a in range(left, -1, -1))
            return
        moves = [weights[j] for weights in rows]
        for s in range(left, -1, -1):
            rest = left - s
            lo, hi = -s, s
            # |n - w c| <= rest * r for each row, an interval of c
            for n, w, r in zip(need, moves, reach[j + 1]):
                slack = rest * r
                if w < 0:
                    n, w = -n, -w
                if w:
                    lo = max(lo, -((slack - n) // w))
                    hi = min(hi, (n + slack) // w)
                elif abs(n) > slack:
                    hi = lo - 1
            hi -= (hi - s) % 2
            for c in range(hi, lo - 1, -2):
                walk(
                    j + 1,
                    rest,
                    zpart + ((s + c) // 2, (s - c) // 2),
                    tuple(n - w * c for n, w in zip(need, moves)),
                )

    walk(0, degree, (), targets)
    return out


# -- the compiled slice system ------------------------------------------------
#
# A parameter is a tuple of records (component, monomial, (re, im)): the
# component is the stored one (-1 for a bare polynomial; 0, 1 for x1, x2;
# 1 + j for z_j) and the coefficient parts are the canonical GaussianRational
# parts, 0 or +-1.  A row of the system is keyed (tag, component, monomial,
# part): the tag names the defect operator, and the rest is a column key of
# `vectorize` less the degree of its grlex key, which every monomial of a
# slice system shares.


def _real_records(comp: int, monos: Sequence[Monomial]) -> list[tuple]:
    """Real-valued basis on a conjugation-closed set, as the naive oracle's."""
    out = []
    for mono in sorted(monos, key=grlex_key, reverse=True):
        conj = conj_monomial(mono)
        if conj == mono:
            out.append(((comp, mono, (1, 0)),))
        elif grlex_key(mono) > grlex_key(conj):
            out.append(((comp, mono, (1, 0)), (comp, conj, (1, 0))))
            out.append(((comp, mono, (0, 1)), (comp, conj, (0, -1))))
    return out


def _parameters(linear, degree: int, kind: str, limit: int) -> list[tuple]:
    """Parameter records of a slice: the torus-admissible naive parameters, in order.

    The order fixes the columns, and with them the canonical nullspace.  x1
    and x2 both have weight zero, so they share one walk, whose monomials
    count once for each.
    """
    weight_zero = _torus_monomials(linear, degree, None, 0, limit)
    if kind in FUNCTION_KINDS:
        return _real_records(-1, weight_zero)
    used = 2 * len(weight_zero)
    if used > limit:
        raise _slice_limit(limit, degree)
    params = _real_records(0, weight_zero) + _real_records(1, weight_zero)
    for comp in range(2, linear.nblocks + 2):
        monos = _torus_monomials(linear, degree, comp, used, limit)
        used += len(monos)
        for mono in sorted(monos, key=grlex_key, reverse=True):
            params.append(((comp, mono, (1, 0)),))
            params.append(((comp, mono, (0, 1)),))
    return params


def _emit(rows: dict, tag: str, comp: int, mono: Monomial, k: int, re, im):
    """Add re to rows[(tag, comp, mono, 0)][k] and im to rows[(tag, comp, mono, 1)][k].

    An entry that cancels is dropped, and so is a row left empty.
    """
    for part, value in ((0, re), (1, im)):
        if not value:
            continue
        key = (tag, comp, mono, part)
        row = rows.get(key)
        if row is None:
            rows[key] = {k: value}
        elif value := value + row.get(k, 0):
            row[k] = value
        elif len(row) > 1:
            del row[k]
        else:
            del rows[key]


def _shear_rows(params) -> dict:
    """The shear's rows, ("shear", component, monomial, part) -> {parameter: value}.

    x1 d/dx2 applied to every component, less g_x1 in the x2 component:
    exponent shifts, with no substitution.
    """
    rows: dict = {}
    for k, records in enumerate(params):
        for comp, mono, (cr, ci) in records:
            e = mono[1]
            if e:
                _emit(rows, "shear", comp, (mono[0] + 1, e - 1) + mono[2:], k, e * cr, e * ci)
            if comp == 0:
                _emit(rows, "shear", 1, mono, k, -cr, -ci)
    return rows


def _group_rows(context: GroupContext, kind: str, params, live) -> dict:
    """The group elements' rows on the parameters in `live`.

    Keyed (tag, component, monomial, part) -> {parameter: value}.  Element
    idx gives tag f"el{idx}": p(Av) - s p on functions and g(Av) - s A g(v)
    on maps, s the element's sign for the anti-invariant and reversible
    kinds and 1 otherwise.  With every parameter live, these rows and the
    shear's, transposed, give parameter k's entries as `vectorize` of the
    naive path's images of that parameter.
    """
    functions = kind in FUNCTION_KINDS
    rows: dict = {}
    for idx, el in enumerate(context.elements):
        tag = f"el{idx}"
        sign = el.sign if kind in ("anti_invariant", "reversible_equivariant") else 1
        substitute = Substitution(el.action)
        images: dict = {}  # monomial -> its one-term image, or no term
        # stored component -> the (output component, entry) pairs of A's
        # column at the full component, and at its conjugate for z
        columns = output_columns(el.action)
        ncomps = len(columns) // 2 + 1
        direct = {c: columns[c if c < 2 else 2 * c - 2] for c in range(ncomps)}
        conjugate = {c: columns[2 * c - 1] for c in range(2, ncomps)}
        for k in live:
            for comp, mono, (cr, ci) in params[k]:
                image = images.get(mono)
                if image is None:
                    image = images[mono] = {}
                    substitute.add_image(image, mono, 1, 0)
                for m, (ar, ai) in image.items():
                    _emit(rows, tag, comp, m, k, cr * ar - ci * ai, cr * ai + ci * ar)
                if functions:
                    _emit(rows, tag, comp, mono, k, -sign * cr, -sign * ci)
                    continue
                for out, (ar, ai) in direct[comp]:
                    _emit(rows, tag, out, mono, k, -sign * (ar * cr - ai * ci),
                          -sign * (ar * ci + ai * cr))
                if comp >= 2:
                    conj = conj_monomial(mono)
                    for out, (ar, ai) in conjugate[comp]:
                        _emit(rows, tag, out, conj, k, -sign * (ar * cr + ai * ci),
                              -sign * (ai * cr - ar * ci))
    return rows


def _live_system(shear: dict, group: dict, forced: set) -> list[dict]:
    """The rows left to eliminate once the forced parameters are dropped.

    The group rows hold no forced parameter, and the multi-entry shear
    rows lose theirs.  A row then left with one entry forces its
    parameter, which goes to the system once, as a unit row ahead of the
    rest.  Rows that end empty are not kept.
    """
    kept = (
        {k: v for k, v in row.items() if k not in forced}
        for row in shear.values()
        if len(row) > 1
    )
    units: set = set()
    rows = []
    for row in itertools.chain(group.values(), kept):
        if len(row) == 1:
            units.update(row)
        elif row:
            rows.append(row)
    return [{k: 1} for k in sorted(units)] + rows


def _solution_row(params, degree: int, solution: dict) -> dict:
    """The `vectorize` row of the sum of q times parameter k over {k: q}.

    No two parameters share a column key, so each entry is one product.
    """
    return {
        (comp, (degree, mono), part): q * value
        for k, q in solution.items()
        for comp, mono, parts in params[k]
        for part, value in enumerate(parts)
        if value
    }


def slice_space(
    context: GroupContext,
    degree: int,
    kind: str,
    limit: int = DEFAULT_MONOMIAL_LIMIT,
) -> DegreeSlice:
    """Exact basis of the degree-d members of the requested class.

    `limit` bounds the (component, admissible monomial) pairs, which is the
    number of unknowns solved for up to the real/imaginary split.
    """
    if degree < 0:
        raise DimensionError("degree must be nonnegative")
    if kind not in FUNCTION_KINDS + MAP_KINDS:
        raise DimensionError(f"unknown membership kind {kind!r}")
    linear = _linear_part_of(context)
    params = _parameters(linear, degree, kind, limit)
    shear = _shear_rows(params)
    forced = {k for row in shear.values() if len(row) == 1 for k in row}
    live = [k for k in range(len(params)) if k not in forced]
    group = _group_rows(context, kind, params, live)
    solutions = Echelon(_live_system(shear, group, forced)).nullspace(live)
    rows = tuple(_solution_row(params, degree, sol) for sol in solutions)
    return DegreeSlice(degree, kind, rows, linear.nvars)


# -- module slices and span comparison ----------------------------------------


def module_slice(genset, degree: int, limit: int = DEFAULT_MONOMIAL_LIMIT) -> DegreeSlice:
    """Degree-d part of the module spanned by the generator set.

    Spans {m * G} over all module generators G and all monomials m in the
    ring basis with matching total degree, reduced to an exact basis: the
    `symmetry_ops.module_rows` of the generators over the generator set's
    one `ProductTable`.  More than `limit` products raise `ResourceLimit`.
    """
    gens = [(polymap_terms(g), g.degree()) for g in genset.module_generators]
    rows = module_rows(genset.products, gens, degree)
    span = Echelon(itertools.islice(rows, limit))
    if next(rows, None) is not None:
        raise ResourceLimit(f"module slice at degree {degree} exceeded {limit} products")
    nvars = genset.context.linear_part.nvars
    return DegreeSlice(degree, "reversible_equivariant", tuple(span.reduced_rows()), nvars)


@dataclass(frozen=True)
class SpanComparison:
    equal: bool
    witness: object | None = None
    missing_from: str = ""


def spans_equal(a: DegreeSlice, b: DegreeSlice) -> SpanComparison:
    """Exact equality of the two spans; a witness element on failure.

    Decided on the rows, which may be dependent: b lies in span(a), and
    both spans have the same rank.  Only a failure reads the sorted bases,
    to name the first element of b outside span(a), else of a outside
    span(b).
    """
    if a.degree != b.degree or a.kind != b.kind:
        raise DimensionError("slices of different degree or kind are not comparable")
    span_a = Echelon(a.rows)
    if not all(map(span_a.contains, b.rows)):
        return next(
            SpanComparison(False, e, "a") for e in b.basis if not span_a.contains(vectorize(e))
        )
    span_b = Echelon(b.rows)
    if len(span_b.pivots) == len(span_a.pivots):
        return SpanComparison(True)
    return next(
        SpanComparison(False, e, "b") for e in a.basis if not span_b.contains(vectorize(e))
    )
