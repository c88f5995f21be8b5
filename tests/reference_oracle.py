"""The naive degree-slice oracle and the reference polynomial arithmetic.

The package computes on one polynomial arithmetic, the exponent-tuple term
kernel of `poly`; a Polynomial or PolyMap there is a value with no
arithmetic of its own.  The arithmetic below is the reference the tests
compare that kernel against, written on GaussianRational coefficients one
monomial at a time: `add`, `sub`, `neg` and `scale` of Polynomials or
PolyMaps, `mul`, `power`, `conj`, `substitute_linear` (p(Av)) and
`partial` of Polynomials, and `components`, `apply_linear` (A g),
`compose_linear` (g . A) and `mul_invariant` (the module product) of
PolyMaps.  It reads `Polynomial.terms` and builds through the public
constructors, and `test_reference_independence.py` fails if it reaches
the term kernel it is the reference for.

`slice_space_naive` is the independent reference for `oracle.slice_space`.
It skips the torus prefilter and imposes the torus conditions as explicit
rows, builds every parameter and defect image as a Polynomial or PolyMap
through `substitute_linear`, `compose_linear` and `apply_linear`, and has
its own row assembly and elimination, `_plain_nullspace`: a sparse solver
outside `linalg.Echelon` (Fraction rows, no gcd reduction, no integer
combination).  It shares neither the assembly nor the elimination with
`slice_space`, so a fault in either cannot hide by agreeing with itself;
`test_reference_independence.py` fails if this file imports the compiled
path's pieces.  The tests cross-check the two paths, the compiled rows
against the PolyMap rows, and both against the membership predicates.

`reference_membership` is the membership test built from whole
Polynomial and PolyMap images, against which `group.membership` is
compared.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence

from birevnf.errors import DimensionError, IncompatibleMatrix, ResourceLimit
from birevnf.group import GroupContext
from birevnf.linalg import vectorize_polymap, vectorize_polynomial
from birevnf.oracle import (
    DEFAULT_MONOMIAL_LIMIT,
    FUNCTION_KINDS,
    MAP_KINDS,
    DegreeSlice,
    _linear_part_of,
)
from birevnf.poly import (
    I,
    ZERO,
    GaussianRational,
    LinearAction,
    Monomial,
    PolyMap,
    Polynomial,
    _coerce,
    conj_monomial,
    grlex_key,
    x_index,
    z_index,
    zbar_index,
)

HALF = GaussianRational(Fraction(1, 2))


def _same_space(p: Polynomial, q: Polynomial):
    if p.nvars != q.nvars:
        raise DimensionError("polynomials over different coordinate spaces")


def add(a, b):
    """a + b, of two Polynomials or of two PolyMaps."""
    if isinstance(a, PolyMap):
        return PolyMap(
            tuple(map(add, a.x_components, b.x_components)),
            tuple(map(add, a.z_components, b.z_components)),
        )
    _same_space(a, b)
    terms = dict(a.terms)
    for mono, coeff in b.terms.items():
        terms[mono] = terms.get(mono, ZERO) + coeff
    return Polynomial(a.nvars, terms)


def neg(a):
    """-a, of a Polynomial or a PolyMap."""
    if isinstance(a, PolyMap):
        return PolyMap(tuple(map(neg, a.x_components)), tuple(map(neg, a.z_components)))
    return Polynomial(a.nvars, {m: -c for m, c in a.terms.items()})


def sub(a, b):
    """a - b, of two Polynomials or of two PolyMaps."""
    return add(a, neg(b))


def scale(a, c):
    """c a, of a Polynomial by a Gaussian rational or of a PolyMap by a real one."""
    if isinstance(a, PolyMap):
        if _coerce(c).im:
            raise IncompatibleMatrix("maps may only be scaled by real rationals")
        return PolyMap(
            tuple(scale(p, c) for p in a.x_components),
            tuple(scale(p, c) for p in a.z_components),
        )
    return Polynomial(a.nvars, {m: v * c for m, v in a.terms.items()})


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """The product p q."""
    _same_space(p, q)
    terms: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            terms[mono] = terms.get(mono, ZERO) + c1 * c2
    return Polynomial(p.nvars, terms)


def power(p: Polynomial, exponent: int) -> Polynomial:
    """p to a nonnegative power, by repeated squaring."""
    if exponent < 0:
        raise ValueError("negative polynomial power")
    result = Polynomial.constant(p.nvars, 1)
    while exponent:
        if exponent & 1:
            result = mul(result, p)
        exponent >>= 1
        if exponent:
            p = mul(p, p)
    return result


def conj(p: Polynomial) -> Polynomial:
    """Formal conjugate: conjugate coefficients, swap each z_j/zb_j pair."""
    return Polynomial(p.nvars, {conj_monomial(m): c.conjugate() for m, c in p.terms.items()})


def _require_coordinates(action: LinearAction, nvars: int):
    if action.nvars != nvars:
        raise DimensionError(f"action is on {action.nvars} coordinates, expected {nvars}")


def substitute_linear(p: Polynomial, action: LinearAction) -> Polynomial:
    """p(Av), A acting on the coordinate column vector: (A v)_i = sum_j A[i][j] v_j.

    A is monomial, so each variable maps to a multiple of one variable or
    to 0, and each term to one term or to nothing.
    """
    _require_coordinates(action, p.nvars)
    terms: dict = {}
    for mono, coeff in p.terms.items():
        out = [0] * p.nvars
        c = coeff
        for i, e in enumerate(mono):
            if e == 0:
                continue
            if not action.rows[i]:
                c = ZERO
                break
            j, entry = action.rows[i][0]
            out[j] += e
            c = c * entry ** e
        key = tuple(out)
        terms[key] = terms.get(key, ZERO) + c
    return Polynomial(p.nvars, terms)


def components(g: PolyMap) -> tuple[Polynomial, ...]:
    """The full component vector (x1, x2, z1, zb1, ..., zn, zbn) of g."""
    out = list(g.x_components)
    for comp in g.z_components:
        out += [comp, conj(comp)]
    return tuple(out)


def apply_linear(g: PolyMap, action: LinearAction) -> PolyMap:
    """A g: the matrix acting on g's output vector."""
    _require_coordinates(action, g.nvars)
    full = components(g)

    def row(i: int) -> Polynomial:
        acc = Polynomial.zero(g.nvars)
        for j, entry in action.rows[i]:
            acc = add(acc, scale(full[j], entry))
        return acc

    return PolyMap(
        (row(0), row(1)), tuple(row(z_index(j)) for j in range(1, g.nblocks + 1))
    )


def mul_invariant(g: PolyMap, u: Polynomial) -> PolyMap:
    """Module action: multiply every component of g by a real-valued polynomial."""
    if not u.is_real_valued():
        raise IncompatibleMatrix("module coefficients must be real-valued")
    return PolyMap(
        tuple(mul(comp, u) for comp in g.x_components),
        tuple(mul(comp, u) for comp in g.z_components),
    )


def partial(p: Polynomial, index: int) -> Polynomial:
    """The derivative of p in coordinate index."""
    acc = Polynomial.zero(p.nvars)
    for mono, coeff in p.terms.items():
        e = mono[index]
        if e:
            lowered = list(mono)
            lowered[index] = e - 1
            acc = add(acc, Polynomial.monomial(p.nvars, tuple(lowered), coeff * e))
    return acc


def compose_linear(g: PolyMap, action: LinearAction) -> PolyMap:
    """g . A : substitute the linear map into every component."""
    return PolyMap(
        tuple(substitute_linear(c, action) for c in g.x_components),
        tuple(substitute_linear(c, action) for c in g.z_components),
    )


def reference_infinitesimal_ok(linear_part, obj, kind: str) -> bool:
    """The torus and shear conditions, the shear on whole Polynomials."""
    if kind == "invariant":
        comps = (obj,)
    else:
        comps = (*obj.x_components, *obj.z_components)
    for weights in linear_part.torus_weight_rows():
        for c, poly in enumerate(comps):
            target = linear_part.component_weight(c, weights)
            for mono in poly.monomials():
                if sum(
                    w * (mono[z_index(j)] - mono[zbar_index(j)])
                    for j, w in enumerate(weights, start=1)
                ) != target:
                    return False
    x1 = Polynomial.variable(obj.nvars, x_index(1))
    sheared = [mul(x1, partial(poly, x_index(2))) for poly in comps]
    if kind == "equivariant":
        sheared[1] = sub(sheared[1], comps[0])
    return not any(sheared)


def reference_membership(obj, context: GroupContext, kind: str) -> bool:
    """`group.membership` on whole images: p(Av) and g(Av), A g as PolyMaps."""
    if kind in ("invariant", "anti_invariant"):
        if not isinstance(obj, Polynomial):
            raise TypeError("function membership kinds apply to Polynomial")
        for el in context.elements:
            pulled = substitute_linear(obj, el.action)
            expected = obj if kind == "invariant" else scale(obj, el.sign)
            if pulled != expected:
                return False
        if context.continuous is not None:
            return reference_infinitesimal_ok(context.continuous, obj, "invariant")
        return True
    if kind in ("equivariant", "reversible_equivariant"):
        if not isinstance(obj, PolyMap):
            raise TypeError("mapping membership kinds apply to PolyMap")
        for el in context.elements:
            lhs = compose_linear(obj, el.action)
            rhs = apply_linear(obj, el.action)
            if kind == "reversible_equivariant":
                rhs = scale(rhs, el.sign)
            if lhs != rhs:
                return False
        if context.continuous is not None:
            return reference_infinitesimal_ok(context.continuous, obj, "equivariant")
        return True
    raise ValueError(f"unknown membership kind {kind!r}")


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree, in descending grlex order."""

    def gen(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining, -1, -1):
            yield from gen(prefix + (e,), remaining - e, slots - 1)

    yield from gen((), degree, nvars)


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
        partner = conj_monomial(mono)
        if partner == mono:
            out.append(Polynomial.monomial(nvars, mono))
        elif grlex_key(mono) > grlex_key(partner):
            if partner not in mono_set:
                # a full degree slice is conj-closed; a missing partner can
                # only mean the caller passed a bad set
                raise DimensionError("monomial set is not conjugation-closed")
            base = Polynomial.monomial(nvars, mono)
            out.append(add(base, conj(base)))
            imag = Polynomial.monomial(nvars, mono, I)
            out.append(add(imag, conj(imag)))
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
    return mul(x1, partial(p, x_index(2)))


def _shear_defect_map(g: PolyMap) -> PolyMap:
    x1 = Polynomial.variable(g.nvars, x_index(1))
    gx1, gx2 = g.x_components
    return PolyMap(
        (mul(x1, partial(gx1, x_index(2))), sub(mul(x1, partial(gx2, x_index(2))), gx1)),
        tuple(mul(x1, partial(comp, x_index(2))) for comp in g.z_components),
    )


def _function_constraints(context: GroupContext, kind: str, param: Polynomial):
    """Images of one parameter under every defect operator, as tagged vectors."""
    images = []
    for idx, el in enumerate(context.elements):
        sign = 1 if kind == "invariant" else el.sign
        defect = sub(substitute_linear(param, el.action), scale(param, sign))
        images.append((f"el{idx}", vectorize_polynomial(defect)))
    images.append(("shear", vectorize_polynomial(_shear_defect_function(param))))
    return images


def _map_constraints(context: GroupContext, kind: str, param: PolyMap):
    images = []
    for idx, el in enumerate(context.elements):
        rhs = apply_linear(param, el.action)
        if kind == "reversible_equivariant":
            rhs = scale(rhs, el.sign)
        defect = sub(compose_linear(param, el.action), rhs)
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


def weight_defect(mono: Monomial, weights: Sequence[int]) -> int:
    """The torus weight of a monomial: sum_j w_j (exponent of z_j - of zb_j)."""
    return sum(w * (mono[2 * j] - mono[2 * j + 1]) for j, w in enumerate(weights, start=1))


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
    linear = _linear_part_of(context)
    nvars = linear.nvars

    def torus_rows_function(param: Polynomial):
        out = []
        for t, weights in enumerate(linear.torus_weight_rows()):
            vec = {}
            for mono, coeff in param.sorted_terms():
                defect = weight_defect(mono, weights)
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
        for t, weights in enumerate(linear.torus_weight_rows()):
            vec = {}
            for comp, poly in enumerate(comps):
                target = linear.component_weight(comp, weights)
                for mono, coeff in poly.sorted_terms():
                    defect = weight_defect(mono, weights) - target
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
        _monomial_budget(nvars, degree, linear.nblocks + 2, limit)
        params = _map_parameters(linear.nblocks, degree)
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
    vectorize = vectorize_polynomial if kind in FUNCTION_KINDS else vectorize_polymap
    return DegreeSlice(degree, kind, tuple(map(vectorize, basis)), nvars)


def _combine_polys(params: Sequence[Polynomial], sol: dict) -> Polynomial:
    acc = Polynomial.zero(params[0].nvars) if params else None
    for k, coeff in sol.items():
        acc = add(acc, scale(params[k], Fraction(coeff)))
    return acc


def _combine_maps(params: Sequence[PolyMap], sol: dict) -> PolyMap:
    acc = PolyMap.zero(params[0].nblocks) if params else None
    for k, coeff in sol.items():
        acc = add(acc, scale(params[k], Fraction(coeff)))
    return acc
