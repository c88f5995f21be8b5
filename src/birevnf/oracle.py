"""Degree-graded brute-force computation of symmetry-constrained spaces.

Independent certification path: instead of transporting generators, each
degree slice is computed from scratch as the exact rational nullspace of
the defining linear identities.  Degree-d monomials are enumerated, the
torus weight filter removes everything with the wrong character (this is
what keeps the matrices small), the shear and finite-group identities are
imposed as sparse linear constraints on the surviving coefficients, and a
fraction-free elimination returns a canonical reduced-echelon basis.

A slower naive variant skips the torus prefilter and uses plain rational
elimination; the test suite cross-checks the two paths against each other
and against the membership predicates.  That elimination, `_plain_nullspace`,
is deliberately the one sparse solver outside `linalg.Echelon`: it shares no
code with the kernel (Fraction rows, no gcd reduction, no integer
combination), so a fault in the kernel cannot hide by agreeing with itself.
"""

from __future__ import annotations

import json
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
)
from .poly import (
    I,
    Monomial,
    PolyMap,
    Polynomial,
    conj_monomial,
    grlex_key,
    monomials_of_degree,
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


def _monomial_budget(nvars: int, degree: int, components: int, limit: int):
    raw = comb(nvars - 1 + degree, degree) * components
    if raw > limit:
        raise ResourceLimit(
            f"{raw} degree-{degree} monomials exceed the configured bound {limit}"
        )


def _torus_monomials(sgroup, nvars: int, degree: int, component: int | None):
    """Degree-d monomials with the torus character of the given component.

    component None means weight zero (polynomial functions); otherwise the
    full component index (0, 1 for x; 2+j for z_{j+1}).
    """
    keep = []
    for mono in monomials_of_degree(nvars, degree):
        ok = True
        for weights in sgroup.torus_weights:
            target = 0 if component is None else sgroup.component_weight(component, weights)
            if sgroup.monomial_weight_defect(mono, weights) != target:
                ok = False
                break
        if ok:
            keep.append(mono)
    return keep


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
                # torus filters are conj-stable for weight-zero targets; a
                # missing partner can only mean the caller passed a bad set
                raise DimensionError("monomial set is not conjugation-closed")
            base = Polynomial.monomial(nvars, mono)
            out.append(base + base.conj())
            imag = Polynomial.monomial(nvars, mono, I)
            out.append(imag + imag.conj())
    return out


def _function_parameters(sgroup, nvars, degree, filtered=True):
    if filtered:
        monos = _torus_monomials(sgroup, nvars, degree, None)
    else:
        monos = list(monomials_of_degree(nvars, degree))
    return _real_parameter_polys(nvars, monos)


def _map_parameters(sgroup, nblocks, degree, filtered=True):
    nvars = 2 * nblocks + 2
    zero = Polynomial.zero(nvars)
    params: list[PolyMap] = []
    for comp in range(nblocks + 2):
        if filtered:
            monos = _torus_monomials(sgroup, nvars, degree, comp)
        else:
            monos = list(monomials_of_degree(nvars, degree))
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
    sgroup = _sgroup_of(context)
    images = []
    for idx, el in enumerate(context.elements):
        sign = 1 if kind == "invariant" else el.sign
        defect = param.substitute_linear(el.action) - param.scale(sign)
        images.append((f"el{idx}", vectorize_polynomial(defect)))
    if sgroup.has_shear:
        images.append(("shear", vectorize_polynomial(_shear_defect_function(param))))
    return images


def _map_constraints(context: GroupContext, kind: str, param: PolyMap):
    sgroup = _sgroup_of(context)
    images = []
    for idx, el in enumerate(context.elements):
        rhs = param.apply_linear(el.action)
        if kind == "reversible_equivariant":
            rhs = rhs.scale(el.sign)
        defect = param.compose_linear(el.action) - rhs
        images.append((f"el{idx}", vectorize_polymap(defect)))
    if sgroup.has_shear:
        images.append(("shear", vectorize_polymap(_shear_defect_map(param))))
    return images


def _solve(params, image_fn, columns_builder, use_fraction_free=True):
    """Nullspace of the stacked defect operators over the parameter space."""
    rows: dict = {}
    for k, param in enumerate(params):
        for tag, vec in image_fn(param):
            for colkey, value in vec.items():
                rows.setdefault((tag, colkey), {})[k] = value
    columns = list(range(len(params)))
    ordered_rows = [rows[key] for key in sorted(rows)]
    if use_fraction_free:
        solutions = Echelon(ordered_rows).nullspace(columns)
    else:
        solutions = _plain_nullspace(ordered_rows, columns)
    combos = []
    for sol in solutions:
        combo = columns_builder(sol)
        combos.append(combo)
    return combos


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


def slice_space(
    context: GroupContext,
    degree: int,
    kind: str,
    limit: int = DEFAULT_MONOMIAL_LIMIT,
) -> DegreeSlice:
    """Exact basis of the degree-d members of the requested class."""
    if degree < 0:
        raise DimensionError("degree must be nonnegative")
    sgroup = _sgroup_of(context)
    nvars = sgroup.nvars
    if kind in FUNCTION_KINDS:
        _monomial_budget(nvars, degree, 1, limit)
        params = _function_parameters(sgroup, nvars, degree)
        basis = _solve(
            params,
            lambda p: _function_constraints(context, kind, p),
            lambda sol: _combine_polys(params, sol),
        )
    elif kind in MAP_KINDS:
        _monomial_budget(nvars, degree, sgroup.nblocks + 2, limit)
        params = _map_parameters(sgroup, sgroup.nblocks, degree)
        basis = _solve(
            params,
            lambda g: _map_constraints(context, kind, g),
            lambda sol: _combine_maps(params, sol),
        )
    else:
        raise DimensionError(f"unknown membership kind {kind!r}")
    basis = [b for b in basis if b]
    basis.sort(key=lambda b: b.sort_key())
    return DegreeSlice(degree, kind, tuple(basis))


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
        params = _function_parameters(sgroup, nvars, degree, filtered=False)
        basis = _solve(
            params,
            lambda p: _function_constraints(context, kind, p) + torus_rows_function(p),
            lambda sol: _combine_polys(params, sol),
            use_fraction_free=False,
        )
    elif kind in MAP_KINDS:
        _monomial_budget(nvars, degree, sgroup.nblocks + 2, limit)
        params = _map_parameters(sgroup, sgroup.nblocks, degree, filtered=False)
        basis = _solve(
            params,
            lambda g: _map_constraints(context, kind, g) + torus_rows_map(g),
            lambda sol: _combine_maps(params, sol),
            use_fraction_free=False,
        )
    else:
        raise DimensionError(f"unknown membership kind {kind!r}")
    basis = [b for b in basis if b]
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
    monomials come from one `ProductTable` built for this call.
    """
    from .symmetry_ops import ProductTable  # local import avoids a cycle

    gens = genset.module_generators
    nblocks = gens[0].nblocks if gens else genset.context.nblocks
    products = ProductTable(genset.ring_basis, 2 * nblocks + 2)
    span = Echelon()
    count = 0
    for gen in gens:
        gap = degree - gen.degree()
        if gap < 0:
            continue
        for coeff in products[gap]:
            count += 1
            if count > limit:
                raise ResourceLimit(
                    f"module slice at degree {degree} exceeded {limit} products"
                )
            span.insert(vectorize_polymap(gen.mul_invariant(coeff)))
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


# -- reports ------------------------------------------------------------------


def dimension_table(
    context: GroupContext,
    degrees: Sequence[int],
    kinds: Sequence[str] = FUNCTION_KINDS + MAP_KINDS,
    limit: int = DEFAULT_MONOMIAL_LIMIT,
) -> dict:
    table = {
        kind: {d: slice_space(context, d, kind, limit).dimension for d in degrees}
        for kind in kinds
    }
    return table


def dimension_table_json(table: dict) -> str:
    payload = {
        kind: {str(d): dim for d, dim in row.items()} for kind, row in table.items()
    }
    return json.dumps({"schema": "dimtable-v1", "dimensions": payload}, sort_keys=True, indent=2)


def render_dimension_table(table: dict) -> str:
    kinds = list(table)
    degrees = sorted({d for row in table.values() for d in row})
    width = max(len(k) for k in kinds)
    header = "degree".ljust(width) + "".join(f"{d:>6}" for d in degrees)
    lines = [header]
    for kind in kinds:
        row = table[kind]
        lines.append(kind.ljust(width) + "".join(f"{row.get(d, '-'):>6}" for d in degrees))
    return "\n".join(lines)
