"""Two-term Reynolds averages, the transfer projection, and the pipeline.

For an involution kappa acting on V, the operators

    R(f) = (f + f . kappa) / 2          on polynomial functions,
    S(f) = (f - f . kappa) / 2          on polynomial functions,
    T(g) = (g - kappa . g . kappa) / 2  on polynomial mappings,

are exact idempotent projections: R + S is the identity, R projects onto
kappa-invariants, S onto the sign(-1) part, and T onto the mappings that
anti-commute with kappa.  All three are homomorphisms of modules over the
invariants of the extended group, which is what makes the generator
transport work:

  1. extend a Hilbert basis {u_i} along kappa via {R(u_i)} + {S(u_i)S(u_j)};
  2. the products {S(u_i) L_j}, with S(u_0) = 1, generate the module over
     the smaller coefficient ring;
  3. project them by T.  S(u) is kappa-odd, so T(S(u) L) = S(u) E(L) with
     E(L) = L - T(L) = (L + kappa . L . kappa)/2: one T(L_j) per generator
     gives every projection, and no product is projected.

The pipeline runs this twice, once per reversing involution, starting from
the closure-group catalog: it yields a Hilbert basis for the full invariant
ring and module generators for the reversible-equivariant mappings under
the whole semidirect product.  Operator outputs keep their exact one-half
prefactors; only the candidates handed to the prunes are rescaled to
leading coefficient 1 (or i), so idempotence identities hold on the nose
while presented tables match the cleaned-up convention.

The pipeline is a loop over the involution tower, and `transported`
keeps each rung for the last TRANSPORT_CACHE keys: the catalog under the
key (linear part), its step along phi under (linear part, phi) and the
step along psi under (linear part, phi, psi'), psi' the psi of the
orbit's representative (`SymmetryContext.orbit_psi`): psi' = psi t for
an order-2 t in the closure torus S, so <S, phi, psi'> is the caller's
group with the caller's sign map.  Each rung is the generator set of its
own group, and `certify` checks it against that group once, when it is
made, before it is kept; a rung that fails raises on every call and is
never kept.  The sign classes of one linear part share the catalog and
the phi step, the members of an orbit share the psi step too, and a
later member runs no step and no check.  Keeping the steps is exact: the
keys are frozen and compare by value, the Polynomials and PolyMaps of a
result are immutable, and every later step copies the terms it reads.
A rung is a `continuous.Catalog`, a ring basis and module generators.
`oracle.KEPT_SYSTEMS` keeps their module slices under the two, so a
later job on the rung builds no product and eliminates no module row;
the `ProductTable` that makes a slice belongs to one `GeneratorSet`, a
job's, and goes with it.  An entry holds tens of kilobytes: the 6
entries of all 16 sign classes (4 orbits) of `res_double_C4` (1,2,1,3)
hold 0.20 MB of objects (tracemalloc).

Both prunes are one pass, `_prune`, over the rows of a `ProductTable`;
`module_rows` serves `prune_module` and `oracle.module_slice`, which
reads the one table that a `GeneratorSet` keeps.

The operators, the candidates of both steps with their rescaling and
deduplication, the ring-product table and the rows of both prunes run on
the exponent-tuple terms of `poly` (the kernel the oracle uses too) and
emit rows through `linalg.vectorize_terms`; a Polynomial or PolyMap is
built only for a candidate handed to a prune or a result that leaves this
module.  The reference the tests compare them against, products,
substitutions p(Av), images A g and g . A, and the module product on
whole Polynomials and PolyMaps, is in `tests/reference_oracle.py`, not
in the package.  `certify` checks each rung with
`group.membership`, which decides on terms and rows without this kernel.
"""

from __future__ import annotations

import json
from functools import cache, cached_property, lru_cache
from fractions import Fraction
from itertools import groupby
from threading import Lock
from typing import Iterable, Sequence

from .errors import (
    CertificationFailure,
    ConditionViolated,
    ConfigError,
    DimensionError,
    IncompatibleMatrix,
)
from .group import GroupContext, SignedElement, membership
from .linalg import Echelon, vectorize, vectorize_terms
from .poly import (
    Frozen,
    LATEX,
    LinearAction,
    TEXT,
    Notation,
    PolyMap,
    Polynomial,
    Substitution,
    add_output_image,
    add_term,
    grlex_key,
    mul_terms,
    output_columns,
    polymap_from_terms,
    polymap_terms,
    polynomial_from_terms,
    render_polymap,
    render_polynomial,
    terms_of,
)
from .continuous import Catalog, LinearPart, SymmetryContext, closure_data


def _require_involution(kappa: SignedElement):
    if not kappa.is_involution():
        raise ConditionViolated("the averaging element must be an involution")


def reynolds_R(f: Polynomial, kappa: SignedElement) -> Polynomial:
    """(f + f . kappa)/2: projection onto kappa-invariant functions."""
    _require_involution(kappa)
    doubled = _doubled(terms_of(f), Substitution(kappa.action), 1)
    return polynomial_from_terms(f.nvars, _halve(doubled))


def reynolds_S(f: Polynomial, kappa: SignedElement) -> Polynomial:
    """(f - f . kappa)/2: projection onto the kappa-odd functions."""
    _require_involution(kappa)
    doubled = _doubled(terms_of(f), Substitution(kappa.action), -1)
    return polynomial_from_terms(f.nvars, _halve(doubled))


def transfer_T(g: PolyMap, kappa: SignedElement) -> PolyMap:
    """(g - kappa . g . kappa)/2: projection onto kappa-reversible mappings."""
    _require_involution(kappa)
    return _transfer(g, kappa.action)


def _doubled(terms: dict, substitute: Substitution, sign: int) -> dict:
    """f + sign * (f . A) on the terms of f: twice R(f) for sign 1, twice S(f) for -1."""
    out = dict(terms)
    for mono, (re, im) in terms.items():
        substitute.add_image(out, mono, sign * re, sign * im)
    return out


def _halve(terms: dict) -> dict:
    half = Fraction(1, 2)
    return {m: (re * half, im * half) for m, (re, im) in terms.items()}


def _transfer(g: PolyMap, action: LinearAction) -> PolyMap:
    """(g - A . g . A)/2 for any LinearAction A, on exponent-tuple terms.

    h = g . A comes from the monomial images of one `Substitution`, then
    A . h from its `output_columns`.  Only the image is built as a PolyMap.
    """
    substitute = Substitution(action)
    columns = output_columns(action)
    stored = polymap_terms(g)
    out = [dict(terms) for terms in stored]  # g, less A . g . A below
    for comp, terms in enumerate(stored):
        composed: dict = {}
        for mono, (re, im) in terms.items():
            substitute.add_image(composed, mono, re, im)
        add_output_image(out, columns, comp, composed, -1)
    return polymap_from_terms(g.nvars, [_halve(terms) for terms in out])


# -- normalization and pruning -----------------------------------------------


def _normalized_once(candidates: Iterable[Sequence[dict]]) -> list[tuple[dict, ...]]:
    """The nonzero candidates rescaled by their leading rational coefficient, each once.

    A candidate is the terms of each stored component (one for a
    polynomial); its leading coefficient is that of the grlex-largest
    monomial of its first nonzero component.  The scaling is real rational,
    which keeps reality and a factor i, so a real rational multiple of a
    candidate comes out the same.
    """
    seen = set()
    out = []
    for comps in candidates:
        lead = next((terms for terms in comps if terms), None)
        if lead is None:
            continue
        re, im = lead[max(lead, key=grlex_key)]
        factor = re if re else im
        if factor != 1:
            inverse = Fraction(1) / factor
            comps = [{m: (r * inverse, i * inverse) for m, (r, i) in t.items()} for t in comps]
        key = tuple(frozenset(terms.items()) for terms in comps)
        if key not in seen:
            seen.add(key)
            out.append(tuple(comps))
    return out


def _canonical(elems):
    return tuple(sorted(elems, key=lambda e: e.sort_key()))


class ProductTable:
    """Products of ring-basis elements, one level per total degree, on terms.

    Level d holds every product u_{i_1} ... u_{i_k} with i_1 <= ... <= i_k
    and total degree d, each once, in no particular order, as exponent-tuple
    terms (`poly.mul_terms`).  It is built on demand from level d - deg(u_i)
    times u_i, over the entries whose last factor index is at most i, so
    each product costs one multiplication.  `add` checks each basis element
    once: it must have positive degree and be real-valued, and a product of
    real-valued elements is real-valued, so no product needs the check.
    Levels are built under a lock, so threads that share a table never
    append a level twice, and a shared one (`GeneratorSet.products`) is
    never added to.
    """

    def __init__(self, basis: Iterable[Polynomial], nvars: int):
        self.basis: list[tuple[dict, int]] = []
        # level d: (product, index of its last factor); the empty product is 1
        self.levels = [[({(0,) * nvars: (1, 0)}, 0)]]
        self._lock = Lock()
        for u in basis:
            self.add(u)

    def add(self, u: Polynomial):
        """Append a basis element; levels from its degree on are rebuilt."""
        degree = u.degree()
        if degree < 1:
            raise DimensionError("ring products need basis elements of positive degree")
        if not u.is_real_valued():
            raise IncompatibleMatrix("module coefficients must be real-valued")
        self.basis.append((terms_of(u), degree))
        del self.levels[degree:]

    def __getitem__(self, degree: int) -> list[dict]:
        if degree < 0:
            return []
        levels = self.levels
        with self._lock:
            while len(levels) <= degree:
                top = len(levels)
                level = []
                for i, (u, du) in enumerate(self.basis):
                    if du <= top:
                        level.extend(
                            (mul_terms(p, u), i) for p, last in levels[top - du] if last <= i
                        )
                levels.append(level)
        return [p for p, _ in levels[degree]]


def module_row(gen_terms: Sequence[dict], product: dict) -> dict:
    """The column vector of a generator, given by `polymap_terms`, times a product."""
    return vectorize_terms(
        (comp, mul_terms(terms, product)) for comp, terms in enumerate(gen_terms) if terms
    )


def module_rows(products: ProductTable, gens: Iterable[tuple], degree: int):
    """Each (`polymap_terms`, degree) generator times each ring product of the missing degree."""
    return (module_row(terms, p) for terms, d in gens for p in products[degree - d])


def _prune(candidates: Iterable, rows, keep) -> tuple:
    """The one pass of both prunes, in canonical order, which is degree order.

    At each degree d the span of `rows(d)`, what the kept lower-degree
    elements generate, is built once; a degree-d candidate is kept and
    passed to `keep` only if that span does not already contain it.  This
    keeps what deleting redundant elements from the last one backwards
    keeps: a homogeneous element is generated only in its own degree, and
    dropping a redundant lower-degree element leaves the lower-degree part
    as it was, so either way element i goes iff it lies in the span of the
    earlier ones modulo that part, and ties keep the earlier element.
    Zeros and repeats are dropped, the first copy kept.  Input that is not
    homogeneous raises `DimensionError` before `rows` is called.
    """
    elems = _canonical(candidates)
    if not all(e.is_homogeneous() for e in elems):
        raise DimensionError("pruning needs homogeneous elements")
    kept = []
    for degree, group in groupby(elems, key=lambda e: e.degree()):
        span = Echelon(rows(degree))
        for e in group:
            if span.insert(vectorize(e)):
                kept.append(e)
                keep(e)
    return tuple(kept)


def prune_ring(candidates: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """Drop elements that are polynomials in the remaining ones.

    `_prune` over the products of a `ProductTable` that each kept element
    is added to; nonzero constants are dropped (the empty product is 1).
    A kept element that is not real-valued raises `IncompatibleMatrix`.
    """
    candidates = tuple(candidates)
    products = ProductTable((), candidates[0].nvars if candidates else 0)
    return _prune(
        candidates, lambda d: (vectorize_terms(((-1, p),)) for p in products[d]), products.add
    )


def prune_module(
    gens: Iterable[PolyMap], ring_basis: Sequence[Polynomial]
) -> tuple[PolyMap, ...]:
    """Drop generators lying in the module generated by the others.

    `_prune` over `module_rows` of the kept generators and one
    `ProductTable` of the ring basis, built at the first degree: a
    ring-basis element that is not real-valued raises `IncompatibleMatrix`
    after the homogeneity check.
    """
    gens = tuple(gens)
    products = cache(lambda: ProductTable(ring_basis, gens[0].nvars))
    kept: list[tuple[tuple, int]] = []
    return _prune(
        gens,
        lambda degree: module_rows(products(), kept, degree),
        lambda g: kept.append((polymap_terms(g), g.degree())),
    )


# -- generator transport -----------------------------------------------------


def _odd_parts(basis: Sequence[Polynomial], substitute: Substitution) -> list[dict]:
    """The nonzero 2 S(u_i), on terms, in basis order."""
    odd = (_doubled(terms_of(u), substitute, -1) for u in basis)
    return [terms for terms in odd if terms]


def extend_hilbert_basis(
    basis: Sequence[Polynomial], kappa: SignedElement
) -> tuple[Polynomial, ...]:
    """Hilbert basis for the invariants of the group extended by kappa.

    Takes {R(u_i)} together with the pairwise products {S(u_i)S(u_j)},
    removes zeros, rescales, and prunes ring-redundant elements (this is
    where algebraic relations between the products are rewritten away).
    Both are built on terms from 2R and 2S, as the rescaling drops the 2.
    """
    _require_involution(kappa)
    substitute = Substitution(kappa.action)
    candidates = [(_doubled(terms_of(u), substitute, 1),) for u in basis]
    odd = _odd_parts(basis, substitute)
    candidates += [(mul_terms(si, sj),) for i, si in enumerate(odd) for sj in odd[i:]]
    return prune_ring(polynomial_from_terms(kappa.size, p) for p, in _normalized_once(candidates))


def generators_over_extension(
    basis: Sequence[Polynomial],
    gens: Sequence[PolyMap],
    images: Sequence[PolyMap],
    kappa: SignedElement,
) -> tuple[PolyMap, ...]:
    """The projections {T(S(u_i) L_j)} = {S(u_i) E(L_j)}, given images[j] = T(L_j).

    E(L) = L - T(L) = (L + kappa . L . kappa)/2.  T is a module map and S(u)
    is kappa-odd, so T(S(u) L) = S(u) E(L): the products need no projection
    of their own.  Zeros are dropped, the rest rescaled to lead 1, each
    once; the products are built on terms from 2 S(u_i).
    """
    _require_involution(kappa)
    odd = _odd_parts(basis, Substitution(kappa.action))
    even = []
    for g, image in zip(gens, images):
        parts = [dict(terms) for terms in polymap_terms(g)]
        for part, projected in zip(parts, polymap_terms(image)):
            for mono, (re, im) in projected.items():
                add_term(part, mono, -re, -im)
        if any(parts):
            even.append(parts)
    products = ([mul_terms(terms, s) for terms in parts] for s in odd for parts in even)
    return tuple(polymap_from_terms(kappa.size, c) for c in _normalized_once(products))


def project_generators(images: Sequence[PolyMap]) -> tuple[PolyMap, ...]:
    """The transfer projections {T(L_j)}, zeros removed, rescaled to lead 1, each once."""
    normalized = _normalized_once(map(polymap_terms, images))
    return tuple(polymap_from_terms(images[0].nvars, comps) for comps in normalized)


# -- generator sets and the pipeline -----------------------------------------


class GeneratorSet(Frozen):
    """Hilbert basis plus module generators for one symmetry context.

    Construction checks that every element acts on the context's
    coordinates and is homogeneous; `_trusted` checks nothing, for the
    rungs of `transported`, checked when made.  A set is frozen, and
    equality and the hash read all four fields.
    """

    def __init__(
        self,
        ring_basis: tuple[Polynomial, ...],
        module_generators: tuple[PolyMap, ...],
        context: SymmetryContext,
        certified: bool = False,
    ):
        nvars = context.linear_part.nvars
        if any(e.nvars != nvars for e in (*ring_basis, *module_generators)):
            raise DimensionError(f"generator-set elements must act on {nvars} coordinates")
        for p in ring_basis:
            if not p.is_homogeneous():
                raise CertificationFailure("ring basis elements must be homogeneous")
        for g in module_generators:
            if not g.is_homogeneous():
                raise CertificationFailure("module generators must be homogeneous")
        vars(self).update(
            ring_basis=ring_basis, module_generators=module_generators, context=context,
            certified=certified,
        )

    def _value(self) -> tuple:
        return (self.ring_basis, self.module_generators, self.context, self.certified)

    @cached_property
    def products(self) -> ProductTable:
        """The `ProductTable` of the ring basis, built the first time it is read."""
        return ProductTable(self.ring_basis, self.context.linear_part.nvars)

    @cached_property
    def gens(self) -> tuple:
        """The generators as (`polymap_terms`, degree), built the first time it is read."""
        return tuple((polymap_terms(g), g.degree()) for g in self.module_generators)


def certify(
    ring_basis: Iterable[Polynomial], module_generators: Iterable[PolyMap], group: GroupContext
):
    """Check every element against its defining membership predicate in group.

    `transported` runs it once on each rung of the involution tower, when
    the rung is made, against the rung's own group.
    """
    for p in ring_basis:
        if not membership(p, group, "invariant"):
            raise CertificationFailure(f"ring element is not invariant: {p}")
    for g in module_generators:
        if not membership(g, group, "reversible_equivariant"):
            raise CertificationFailure(f"generator is not reversible-equivariant: {g}")


def _transport(basis, gens, kappa: SignedElement) -> Catalog:
    """One involution step: extend the ring, project each generator once, prune.

    The candidates are {T(L_j)} and {S(u_i) E(L_j)}, the projections of
    {S(u_i) L_j} (`generators_over_extension`), so each generator is
    projected once and no product is.
    """
    extended = extend_hilbert_basis(basis, kappa)
    images = [transfer_T(g, kappa) for g in gens]
    products = generators_over_extension(basis, gens, images, kappa)
    return Catalog(extended, prune_module(project_generators(images) + products, extended))


# the most kept rungs of the involution tower (catalogs, phi steps and psi
# steps together); a sweep over the sign classes of one linear part needs
# 2 + one per orbit, and this bounds a long-running process.  A rung holds
# only its generators; `oracle.KEPT_SYSTEMS` keeps their module slices
TRANSPORT_CACHE = 64


@lru_cache(maxsize=TRANSPORT_CACHE)
def transported(linear_part: LinearPart, *involutions: SignedElement):
    """The closure-group catalog of the linear part, transported along each
    involution in turn: its Hilbert basis and module generators, as a
    `Catalog`.

    Each rung is certified once, when it is made, against its own group,
    GroupContext(involutions, linear_part), before it is kept; a rung that
    fails raises a `CertificationFailure` naming it (catalog, phi step or
    psi step), chained from `certify`'s, and is never kept.  The rung is
    keyed on exactly these involutions; `pipeline` passes its orbit's psi,
    so one psi step serves the orbit.
    """
    if involutions:
        rung = _transport(*transported(linear_part, *involutions[:-1]), involutions[-1])
    else:
        rung = closure_data(linear_part)
    try:
        certify(*rung, GroupContext(involutions, linear_part))
    except CertificationFailure as exc:
        name = ("catalog", "phi step", "psi step")[len(involutions)]
        raise CertificationFailure(f"{name} is not certified: {exc}") from exc
    return rung


def pipeline(context: SymmetryContext) -> GeneratorSet:
    """Run the five-step transport for the semidirect product of both involutions.

    Takes the closure-group catalog transported along phi and then along
    the orbit's psi (`SymmetryContext.orbit_psi`) from `transported`, which
    certified each rung against its own group when it made it; the last
    rung's group, <S, phi, orbit psi>, is the caller's group with the
    caller's sign map, so a kept result is certified for it and runs no
    check again (its prunes checked each element homogeneous).  The result
    carries the caller's context and signs, and the rung's own tuples, so
    it shares the module slices that `oracle.KEPT_SYSTEMS` keeps for them.
    """
    ring, generators = transported(context.linear_part, context.phi, context.orbit_psi)
    return GeneratorSet._trusted(
        ring_basis=ring, module_generators=generators, context=context, certified=True
    )


# -- serialization -----------------------------------------------------------


def genset_to_json(genset: GeneratorSet) -> str:
    payload = {
        "schema": "genset-v1",
        "signs": list(genset.context.signs),
        "nblocks": genset.context.nblocks,
        "certified": genset.certified,
        "ring_basis": [
            {"name": f"u{i + 1}", "poly": render_polynomial(p), "degree": p.degree()}
            for i, p in enumerate(genset.ring_basis)
        ],
        "module_generators": [
            {"name": f"G{i}", "map": render_polymap(g), "degree": g.degree()}
            for i, g in enumerate(genset.module_generators)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _genset_rows(genset: GeneratorSet, notation: Notation):
    """(name, formula) of each ring-basis element and of each module generator."""
    ring = [
        (notation.subscript.format("u", i + 1), render_polynomial(p, notation))
        for i, p in enumerate(genset.ring_basis)
    ]
    gens = [
        (notation.subscript.format("G", i), render_polymap(g, notation))
        for i, g in enumerate(genset.module_generators)
    ]
    return ring, gens


def genset_to_latex(genset: GeneratorSet) -> str:
    ring, gens = _genset_rows(genset, LATEX)
    lines = ["\\begin{align*}", *(f"{name} &= {f} \\\\" for name, f in ring)]
    if gens:
        lines.append(" \\\\\n".join(f"{name} &= {f}" for name, f in gens))
    lines.append("\\end{align*}")
    return "\n".join(lines)


def genset_to_text(genset: GeneratorSet) -> str:
    ring, gens = _genset_rows(genset, TEXT)
    lines = ["ring basis:", *(f"  {name} = {f}" for name, f in ring)]
    lines.append("module generators:")
    lines += [f"  {name} = {f}" for name, f in gens]
    return "\n".join(lines)


_GENSET_RENDERERS = {"text": genset_to_text, "latex": genset_to_latex, "json": genset_to_json}


def emit_genset(genset: GeneratorSet, fmt: str) -> str:
    if fmt not in _GENSET_RENDERERS:
        raise ConfigError(f"unknown output format {fmt!r}")
    return _GENSET_RENDERERS[fmt](genset)
