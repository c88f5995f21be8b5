"""Degree-graded brute-force computation of symmetry-constrained spaces.

Independent certification path: instead of transporting generators, each
degree slice is computed from scratch as the exact rational nullspace of
the defining linear identities.

`slice_space` compiles its system once per call, on exponent tuples and
exact integers.  A torus weight reads only the z/zb exponents, so a walk
over the rotation blocks enumerates only the torus-admissible monomials,
and the resource bound counts those (component, monomial) pairs: the
unknowns actually solved for.  Each parameter is one or two records
(component, monomial, coefficient).  Its image under g.A - sigma A.g is
expanded with the term kernel of `poly` (`Substitution` for g.A,
`output_columns` for A.g; a single term per monomial, as every action is
monomial), and its shear image is an exponent shift.  Entries are ints,
and Fractions only where an element has a denominator; no Polynomial or
PolyMap is built until the nullspace basis vectors, read off
`linalg.Echelon`, become the slice's elements.  Nothing outlives the call.
`module_slice` builds each row from a generator's terms times a ring
product's terms, over one `symmetry_ops.ProductTable`.

The tests hold the independent reference, a naive oracle that shares
neither this row assembly nor `linalg.Echelon`, and cross-check the two
paths, the compiled rows against PolyMap rows, and both against the
membership predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionError, ResourceLimit
from .group import GroupContext
from .linalg import (
    Echelon,
    polymap_from_vector,
    vectorize,
    vectorize_terms,
)
from .poly import (
    Monomial,
    Substitution,
    add_output_image,
    add_term,
    conj_monomial,
    grlex_key,
    nblocks_of,
    output_columns,
    polymap_from_terms,
    polymap_terms,
    polynomial_from_terms,
)

DEFAULT_MONOMIAL_LIMIT = 200_000

FUNCTION_KINDS = ("invariant", "anti_invariant")
MAP_KINDS = ("equivariant", "reversible_equivariant")


@dataclass(frozen=True)
class DegreeSlice:
    """Exact basis of one homogeneous symmetry-constrained space."""

    degree: int
    kind: str
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _linear_part_of(context: GroupContext):
    linear = context.continuous
    if linear is None:
        raise DimensionError("oracle contexts must carry continuous group data")
    return linear


def _torus_monomials(
    linear, degree: int, component: int | None, used: int, limit: int
) -> list:
    """Degree-d monomials with the torus character of the given component.

    component None means weight zero (polynomial functions); otherwise the
    stored component index (0, 1 for x; 2+j for z_{j+1}).  A torus weight
    reads only the z/zb exponents, so the walk picks the exponent pair of
    z_j, zb_j block by block, drops a branch once the blocks left cannot
    reach the target weight, and spreads the remaining degree over x1 and
    x2 in every way.  Raises ResourceLimit once `used` plus the monomials
    found would pass `limit`, checked before each leaf is stored.  At weight
    zero it first counts the monomials x1^p x2^q |z1|^(2k), always
    admissible: sum over k <= d/2 of (d - 2k + 1), which is
    (m + 1)(d + 1 - m) for m = d // 2; if those alone pass the limit, the
    walk would only reach the same verdict later, so it is not started.
    """
    rows = linear.torus_weight_rows()
    nblocks = linear.nblocks
    targets = tuple(
        0 if component is None else linear.component_weight(component, weights)
        for weights in rows
    )

    def over_limit(count: int):
        if used + count > limit:
            raise ResourceLimit(
                f"more than {limit} admissible (component, monomial) pairs "
                f"in the degree-{degree} oracle slice"
            )

    if nblocks and not any(targets):
        half = degree // 2
        over_limit((half + 1) * (degree + 1 - half))
    # reach[j][t]: the most one unit of degree in blocks j.. moves weight t
    reach = [
        [max((abs(w) for w in weights[j:]), default=0) for weights in rows]
        for j in range(nblocks + 1)
    ]
    out: list = []

    def walk(j: int, left: int, zpart: tuple, need: tuple):
        if any(abs(n) > left * r for n, r in zip(need, reach[j])):
            return
        if j == nblocks:
            # reach is 0 past the last block, so need is 0 here
            over_limit(len(out) + left + 1)
            out.extend((a, left - a) + zpart for a in range(left, -1, -1))
            return
        for a in range(left, -1, -1):
            for b in range(left - a, -1, -1):
                walk(
                    j + 1,
                    left - a - b,
                    zpart + (a, b),
                    tuple(n - w[j] * (a - b) for n, w in zip(need, rows)),
                )

    walk(0, degree, (), targets)
    return out


# -- the compiled slice system ------------------------------------------------
#
# A parameter is a tuple of records (component, monomial, (re, im)): the
# component is the stored one (-1 for a bare polynomial; 0, 1 for x1, x2;
# 1 + j for z_j) and the coefficient parts are the canonical GaussianRational
# parts: ints, or Fractions where an entry of a group element has a
# denominator.  A defect image holds the terms of each component, emitted
# through `linalg.vectorize_terms`, the column keys of `vectorize`.


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

    The order fixes the columns, and with them the canonical nullspace.
    """
    if kind in FUNCTION_KINDS:
        return _real_records(-1, _torus_monomials(linear, degree, None, 0, limit))
    params: list[tuple] = []
    used = 0
    for comp in range(linear.nblocks + 2):
        monos = _torus_monomials(linear, degree, comp, used, limit)
        used += len(monos)
        if comp < 2:
            params += _real_records(comp, monos)
            continue
        for mono in sorted(monos, key=grlex_key, reverse=True):
            params.append(((comp, mono, (1, 0)),))
            params.append(((comp, mono, (0, 1)),))
    return params


def _defect_images(context: GroupContext, kind: str, params) -> list[list]:
    """Per parameter, its (tag, vector) image under every defect operator.

    Element idx gives tag f"el{idx}": p(Av) - s p on functions and
    g(Av) - s A g(v) on maps, s the element's sign for the anti-invariant
    and reversible kinds and 1 otherwise.  The shear gives tag "shear":
    x1 d/dx2 applied to every component, less g_x1 in the x2 component.
    The vectors equal `vectorize` of the naive path's images.
    """
    linear = _linear_part_of(context)
    functions = kind in FUNCTION_KINDS
    comps = (-1,) if functions else range(linear.nblocks + 2)
    images: list[list] = [[] for _ in params]
    for idx, el in enumerate(context.elements):
        tag = f"el{idx}"
        sign = el.sign if kind in ("anti_invariant", "reversible_equivariant") else 1
        substitute = Substitution(el.action)
        columns = None if functions else output_columns(el.action)
        for records, out in zip(params, images):
            acc = {comp: {} for comp in comps}
            for comp, mono, (cr, ci) in records:
                substitute.add_image(acc[comp], mono, cr, ci)
                if functions:
                    add_term(acc[comp], mono, -sign * cr, -sign * ci)
                else:
                    add_output_image(acc, columns, comp, {mono: (cr, ci)}, -sign)
            out.append((tag, vectorize_terms(acc.items())))
    for records, out in zip(params, images):
        acc = {comp: {} for comp in comps}
        for comp, mono, (cr, ci) in records:
            e = mono[1]
            if e:
                add_term(acc[comp], (mono[0] + 1, e - 1) + mono[2:], e * cr, e * ci)
            if comp == 0:
                add_term(acc[1], mono, -cr, -ci)
        out.append(("shear", vectorize_terms(acc.items())))
    return images


def _from_records(params, sol: dict, nvars: int, functions: bool):
    """The Polynomial or PolyMap sum of coeff * parameter over a solution."""
    # a function's records carry component -1, the last (and only) entry
    comps = [{} for _ in range(1 if functions else nblocks_of(nvars) + 2)]
    for k, q in sol.items():
        for comp, mono, (cr, ci) in params[k]:
            add_term(comps[comp], mono, q * cr, q * ci)
    if functions:
        return polynomial_from_terms(nvars, comps[0])
    return polymap_from_terms(nvars, comps)


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
    rows: dict = {}
    for k, images in enumerate(_defect_images(context, kind, params)):
        for tag, vec in images:
            for key, value in vec.items():
                rows.setdefault((tag, key), {})[k] = value
    solutions = Echelon(rows[key] for key in sorted(rows)).nullspace(range(len(params)))
    functions = kind in FUNCTION_KINDS
    basis = [_from_records(params, sol, linear.nvars, functions) for sol in solutions]
    basis.sort(key=lambda b: b.sort_key())
    return DegreeSlice(degree, kind, tuple(basis))


# -- module slices and span comparison ----------------------------------------


def module_slice(genset, degree: int, limit: int = DEFAULT_MONOMIAL_LIMIT) -> DegreeSlice:
    """Degree-d part of the module spanned by the generator set.

    Spans {m * G} over all module generators G and all monomials m in the
    ring basis with matching total degree, reduced to an exact basis.  The
    monomials come from one `ProductTable` built for this call, and each
    row is built from the generator's terms times the product's terms.
    """
    from .symmetry_ops import ProductTable, module_row  # local import avoids a cycle

    gens = genset.module_generators
    nblocks = gens[0].nblocks if gens else genset.context.nblocks
    products = ProductTable(genset.ring_basis, 2 * nblocks + 2)
    span = Echelon()
    count = 0
    for gen in gens:
        gap = degree - gen.degree()
        if gap < 0:
            continue
        gen_terms = polymap_terms(gen)
        for coeff in products[gap]:
            count += 1
            if count > limit:
                raise ResourceLimit(
                    f"module slice at degree {degree} exceeded {limit} products"
                )
            span.insert(module_row(gen_terms, coeff))
    basis = [polymap_from_vector(row, nblocks) for row in span.reduced_rows()]
    basis.sort(key=lambda b: b.sort_key())
    return DegreeSlice(degree, "reversible_equivariant", tuple(basis))


@dataclass(frozen=True)
class SpanComparison:
    equal: bool
    witness: object | None = None
    missing_from: str = ""


def spans_equal(a: DegreeSlice, b: DegreeSlice) -> SpanComparison:
    """Exact equality of the two spans; a witness element on failure."""
    if a.degree != b.degree or a.kind != b.kind:
        raise DimensionError("slices of different degree or kind are not comparable")
    span_a = Echelon(vectorize(e) for e in a.basis)
    for elem in b.basis:
        if not span_a.contains(vectorize(elem)):
            return SpanComparison(False, elem, "a")
    span_b = Echelon(vectorize(e) for e in b.basis)
    for elem in a.basis:
        if not span_b.contains(vectorize(elem)):
            return SpanComparison(False, elem, "b")
    return SpanComparison(True)

