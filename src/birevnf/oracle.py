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
`output_columns` for A.g; a single term per monomial for a signed
permutation), and its shear image is an exponent shift.  Entries are ints,
and Fractions only where an element has a denominator; no Polynomial or
PolyMap is built until the nullspace basis vectors, read off
`linalg.Echelon`, become the slice's elements.  Nothing outlives the call.
`module_slice` builds each row from a generator's terms times a ring
product's terms, over one `symmetry_ops.ProductTable`.

`slice_space_naive` is the independent reference.  It skips the torus
prefilter and imposes the torus conditions as explicit rows, builds every
parameter and defect image as a Polynomial or PolyMap through
`substitute_linear`, `compose_linear` and `apply_linear`, and has its own
row assembly and elimination, `_plain_nullspace`: the one sparse solver
outside `linalg.Echelon` (Fraction rows, no gcd reduction, no integer
combination).  It shares neither the assembly nor the elimination with
`slice_space`, so a fault in either cannot hide by agreeing with itself.
The test suite cross-checks the two paths, the compiled rows against the
PolyMap rows, and both against the membership predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .errors import DimensionError, ResourceLimit
from .group import GroupContext
from .linalg import (
    Echelon,
    polymap_from_vector,
    vectorize,
    vectorize_polymap,
    vectorize_polynomial,
    vectorize_terms,
)
from .poly import (
    I,
    Monomial,
    PolyMap,
    Polynomial,
    Substitution,
    add_output_image,
    add_term,
    conj_monomial,
    grlex_key,
    monomials_of_degree,
    nblocks_of,
    output_columns,
    polymap_from_terms,
    polymap_terms,
    polynomial_from_terms,
    x_index,
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


def _sgroup_of(context: GroupContext):
    data = context.continuous
    if data is None:
        raise DimensionError("oracle contexts must carry continuous group data")
    return data


def _torus_monomials(
    sgroup, degree: int, component: int | None, used: int, limit: int
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
    rows = sgroup.torus_weights
    nblocks = sgroup.nblocks
    targets = tuple(
        0 if component is None else sgroup.component_weight(component, weights)
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
    """Real-valued basis on a conjugation-closed set, as `_real_parameter_polys`."""
    out = []
    for mono in sorted(monos, key=grlex_key, reverse=True):
        conj = conj_monomial(mono)
        if conj == mono:
            out.append(((comp, mono, (1, 0)),))
        elif grlex_key(mono) > grlex_key(conj):
            out.append(((comp, mono, (1, 0)), (comp, conj, (1, 0))))
            out.append(((comp, mono, (0, 1)), (comp, conj, (0, -1))))
    return out


def _parameters(sgroup, degree: int, kind: str, limit: int) -> list[tuple]:
    """Parameter records of a slice: the torus-admissible naive parameters, in order.

    The order fixes the columns, and with them the canonical nullspace.
    """
    if kind in FUNCTION_KINDS:
        return _real_records(-1, _torus_monomials(sgroup, degree, None, 0, limit))
    params: list[tuple] = []
    used = 0
    for comp in range(sgroup.nblocks + 2):
        monos = _torus_monomials(sgroup, degree, comp, used, limit)
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
    sgroup = _sgroup_of(context)
    functions = kind in FUNCTION_KINDS
    comps = (-1,) if functions else range(sgroup.nblocks + 2)
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
    sgroup = _sgroup_of(context)
    params = _parameters(sgroup, degree, kind, limit)
    rows: dict = {}
    for k, images in enumerate(_defect_images(context, kind, params)):
        for tag, vec in images:
            for key, value in vec.items():
                rows.setdefault((tag, key), {})[k] = value
    solutions = Echelon(rows[key] for key in sorted(rows)).nullspace(range(len(params)))
    functions = kind in FUNCTION_KINDS
    basis = [_from_records(params, sol, sgroup.nvars, functions) for sol in solutions]
    basis.sort(key=lambda b: b.sort_key())
    return DegreeSlice(degree, kind, tuple(basis))


# -- the naive reference path -------------------------------------------------


def _monomial_budget(nvars: int, degree: int, components: int, limit: int):
    raw = comb(nvars - 1 + degree, degree) * components
    if raw > limit:
        raise ResourceLimit(
            f"{raw} degree-{degree} monomials exceed the configured bound {limit}"
        )


def _real_parameter_polys(nvars: int, monos: Sequence[Monomial]) -> list[Polynomial]:
    """Basis of the real-valued polynomials supported on a conj-closed set."""
    mono_set = set(monos)
    out = []
    for mono in sorted(mono_set, key=grlex_key, reverse=True):
        conj = conj_monomial(mono)
        if conj == mono:
            out.append(Polynomial.monomial(nvars, mono))
        elif grlex_key(mono) > grlex_key(conj):
            if conj not in mono_set:
                # a full degree slice is conj-closed; a missing partner can
                # only mean the caller passed a bad set
                raise DimensionError("monomial set is not conjugation-closed")
            base = Polynomial.monomial(nvars, mono)
            out.append(base + base.conj())
            imag = Polynomial.monomial(nvars, mono, I)
            out.append(imag + imag.conj())
    return out


def _function_parameters(nvars: int, degree: int) -> list[Polynomial]:
    return _real_parameter_polys(nvars, list(monomials_of_degree(nvars, degree)))


def _map_parameters(nblocks: int, degree: int) -> list[PolyMap]:
    nvars = 2 * nblocks + 2
    zero = Polynomial.zero(nvars)
    monos = list(monomials_of_degree(nvars, degree))
    params: list[PolyMap] = []
    for comp in range(nblocks + 2):
        if comp < 2:
            comp_polys = _real_parameter_polys(nvars, monos)
        else:
            comp_polys = []
            for mono in sorted(monos, key=grlex_key, reverse=True):
                comp_polys.append(Polynomial.monomial(nvars, mono))
                comp_polys.append(Polynomial.monomial(nvars, mono, I))
        for poly in comp_polys:
            xs = [zero, zero]
            zs = [zero] * nblocks
            if comp < 2:
                xs[comp] = poly
            else:
                zs[comp - 2] = poly
            params.append(PolyMap(tuple(xs), tuple(zs)))
    return params


def _shear_defect_function(p: Polynomial) -> Polynomial:
    x1 = Polynomial.variable(p.nvars, x_index(1))
    return x1 * p.partial(x_index(2))


def _shear_defect_map(g: PolyMap) -> PolyMap:
    x1 = Polynomial.variable(g.nvars, x_index(1))
    gx1, gx2 = g.x_components
    return PolyMap(
        (x1 * gx1.partial(x_index(2)), x1 * gx2.partial(x_index(2)) - gx1),
        tuple(x1 * comp.partial(x_index(2)) for comp in g.z_components),
    )


def _function_constraints(context: GroupContext, kind: str, param: Polynomial):
    """Images of one parameter under every defect operator, as tagged vectors."""
    images = []
    for idx, el in enumerate(context.elements):
        sign = 1 if kind == "invariant" else el.sign
        defect = param.substitute_linear(el.action) - param.scale(sign)
        images.append((f"el{idx}", vectorize_polynomial(defect)))
    images.append(("shear", vectorize_polynomial(_shear_defect_function(param))))
    return images


def _map_constraints(context: GroupContext, kind: str, param: PolyMap):
    images = []
    for idx, el in enumerate(context.elements):
        rhs = param.apply_linear(el.action)
        if kind == "reversible_equivariant":
            rhs = rhs.scale(el.sign)
        defect = param.compose_linear(el.action) - rhs
        images.append((f"el{idx}", vectorize_polymap(defect)))
    images.append(("shear", vectorize_polymap(_shear_defect_map(param))))
    return images


def _plain_nullspace(rows: Iterable[dict], columns: Sequence) -> list[dict]:
    """Straight rational Gauss elimination; second, independent solve path."""
    pivots: dict = {}
    for row in rows:
        r = {k: Fraction(v) for k, v in row.items() if v}
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                inv = 1 / r[col]
                pivots[col] = {k: v * inv for k, v in r.items()}
                break
            factor = r[col]
            for k, v in pivot.items():
                acc = r.get(k, Fraction(0)) - factor * v
                if acc:
                    r[k] = acc
                else:
                    r.pop(k, None)
    pivot_cols = sorted(pivots, reverse=True)
    basis = []
    for free in (c for c in columns if c not in pivots):
        vec = {free: Fraction(1)}
        for pc in pivot_cols:
            row = pivots[pc]
            s = sum(
                (v * vec[c] for c, v in row.items() if c != pc and c in vec),
                Fraction(0),
            )
            if s:
                vec[pc] = -s
        basis.append(vec)
    return basis


def slice_space_naive(
    context: GroupContext,
    degree: int,
    kind: str,
    limit: int = DEFAULT_MONOMIAL_LIMIT,
) -> DegreeSlice:
    """Second implementation: no torus prefilter, plain rational elimination.

    The torus conditions are imposed as explicit constraint rows on the
    full monomial space.  Used to cross-check slice_space.
    """
    sgroup = _sgroup_of(context)
    nvars = sgroup.nvars

    def torus_rows_function(param: Polynomial):
        out = []
        for t, weights in enumerate(sgroup.torus_weights):
            vec = {}
            for mono, coeff in param.sorted_terms():
                defect = sgroup.monomial_weight_defect(mono, weights)
                if defect:
                    key = (-1, grlex_key(mono), 0)
                    if coeff.re:
                        vec[key] = coeff.re * defect
                    if coeff.im:
                        vec[(-1, grlex_key(mono), 1)] = coeff.im * defect
            out.append((f"torus{t}", vec))
        return out

    def torus_rows_map(param: PolyMap):
        out = []
        comps = (*param.x_components, *param.z_components)
        for t, weights in enumerate(sgroup.torus_weights):
            vec = {}
            for comp, poly in enumerate(comps):
                target = sgroup.component_weight(comp, weights)
                for mono, coeff in poly.sorted_terms():
                    defect = sgroup.monomial_weight_defect(mono, weights) - target
                    if defect:
                        if coeff.re:
                            vec[(comp, grlex_key(mono), 0)] = coeff.re * defect
                        if coeff.im:
                            vec[(comp, grlex_key(mono), 1)] = coeff.im * defect
            out.append((f"torus{t}", vec))
        return out

    if kind in FUNCTION_KINDS:
        _monomial_budget(nvars, degree, 1, limit)
        params = _function_parameters(nvars, degree)
        images = lambda p: _function_constraints(context, kind, p) + torus_rows_function(p)
        combine = _combine_polys
    elif kind in MAP_KINDS:
        _monomial_budget(nvars, degree, sgroup.nblocks + 2, limit)
        params = _map_parameters(sgroup.nblocks, degree)
        images = lambda g: _map_constraints(context, kind, g) + torus_rows_map(g)
        combine = _combine_maps
    else:
        raise DimensionError(f"unknown membership kind {kind!r}")
    rows: dict = {}
    for k, param in enumerate(params):
        for tag, vec in images(param):
            for colkey, value in vec.items():
                rows.setdefault((tag, colkey), {})[k] = value
    solutions = _plain_nullspace([rows[key] for key in sorted(rows)], range(len(params)))
    basis = [b for b in (combine(params, sol) for sol in solutions) if b]
    basis.sort(key=lambda b: b.sort_key())
    return DegreeSlice(degree, kind, tuple(basis))


def _combine_polys(params: Sequence[Polynomial], sol: dict) -> Polynomial:
    acc = Polynomial.zero(params[0].nvars) if params else None
    for k, coeff in sol.items():
        acc = acc + params[k].scale(Fraction(coeff))
    return acc


def _combine_maps(params: Sequence[PolyMap], sol: dict) -> PolyMap:
    acc = PolyMap.zero(params[0].nblocks) if params else None
    for k, coeff in sol.items():
        acc = acc + params[k].scale(Fraction(coeff))
    return acc


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

