"""Reynolds averages, transfer projection, extensions, and the pipeline."""

import functools
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from birevnf.cli import FORMATS
from birevnf.continuous import (
    LinearPart,
    SymmetryContext,
    catalog,
    closure_data,
    enumerate_involution_pairs,
    linear_part_for_case,
    phi_element,
    psi_element,
)
from birevnf.errors import (
    CertificationFailure,
    ConditionViolated,
    DimensionError,
    IncompatibleMatrix,
)
from birevnf.group import GroupContext, membership
from birevnf.linalg import (
    Echelon,
    vectorize_polymap,
    vectorize_polynomial,
    vectorize_terms,
)
from birevnf.normalform import assemble, emit
from birevnf.oracle import module_slice, spans_equal
from birevnf.poly import (
    GaussianRational,
    I,
    PolyMap,
    Polynomial,
    conj_monomial,
    polymap_from_terms,
    polynomial_from_terms,
    x_index,
    z_index,
)
from birevnf import poly
from birevnf.symmetry_ops import (
    TRANSPORT_CACHE,
    GeneratorSet,
    ProductTable,
    _canonical,
    _transfer,
    certify,
    emit_genset,
    extend_hilbert_basis,
    generators_over_extension,
    genset_to_json,
    genset_to_text,
    module_row,
    pipeline,
    prune_module,
    prune_ring,
    reynolds_R,
    reynolds_S,
    transfer_T,
    transported,
)
from birevnf.group import SignedElement
from birevnf import symmetry_ops
from birevnf.symmetry_ops import _transport, project_generators

from conftest import (
    MONOMIAL_ELEMENTS,
    make_rng,
    normalize_leading,
    random_polymap,
    random_polynomial,
    random_real_polynomial,
    sparse,
)
from reference_oracle import (
    HALF,
    add,
    apply_linear,
    compose_linear,
    mul,
    mul_invariant,
    power,
    reference_membership,
    scale,
    sub,
    substitute_linear,
)
from test_golden_gensets import REGIMES as GOLDEN_REGIMES, gensets


@pytest.fixture(scope="module")
def c3_data():
    return catalog("res_n1n2_C3", (1, 2))


def test_reynolds_fixes_even_invariants(c3_data):
    phi = phi_element(3)
    v4 = c3_data.hilbert_basis[3]
    assert reynolds_R(v4, phi) == v4
    assert reynolds_S(v4, phi).is_zero()


def test_reynolds_kills_odd_functions(c3_data):
    phi = phi_element(3)
    x2 = Polynomial.variable(8, 1)
    assert reynolds_R(x2, phi).is_zero()
    assert reynolds_S(x2, phi) == x2


def test_reynolds_fixes_constants():
    phi = phi_element(1)
    one = Polynomial.constant(4, 1)
    assert reynolds_R(one, phi) == one


def test_reynolds_S_picks_imaginary_resonant_invariant(c3_data):
    phi = phi_element(3)
    v5 = c3_data.hilbert_basis[4]
    assert reynolds_S(v5, phi) == v5
    assert reynolds_R(v5, phi).is_zero()


@pytest.mark.parametrize("a0", [1, -1])
def test_reynolds_S_keeps_exact_half_factor(a0):
    # S(v1) = (1 - a0) v1 / 2 exactly, no constant elimination
    psi = psi_element((a0, 1, 1))
    v1 = Polynomial.variable(6, 0)
    expected = scale(v1, GaussianRational(Fraction(1 - a0, 2)))
    assert reynolds_S(v1, psi) == expected


def test_reynolds_S_kills_norm_invariants(c3_data):
    phi = phi_element(3)
    v2 = c3_data.hilbert_basis[1]
    assert reynolds_S(v2, phi).is_zero()


def test_transfer_on_catalog_generators(c3_data):
    # odd-indexed closure generators are reversing, even-indexed symmetric
    phi = phi_element(3)
    H = c3_data.equivariant_generators
    assert transfer_T(H[3], phi) == H[3]
    assert transfer_T(H[0], phi).is_zero()
    assert transfer_T(H[1], phi) == H[1]
    assert transfer_T(H[2], phi).is_zero()


def test_transfer_fixes_its_image():
    rng = make_rng(5)
    phi = phi_element(2)
    for _ in range(10):
        g = random_polymap(rng, 2, max_degree=4)
        image = transfer_T(g, phi)
        assert transfer_T(image, phi) == image


def _transfer_reference(g, action):
    return scale(sub(g, apply_linear(compose_linear(g, action), action)), HALF)


# an involution that is neither phi nor psi: x1 and x2 swapped, z -> i zb
_MIXING_INVOLUTION = MONOMIAL_ELEMENTS[0]


def test_transfer_matches_the_polymap_path():
    # catalog generators under both involutions of every sign class
    for case, params, n in (("res_n1n2_C3", (1, 2), 3), ("res_double_C4", (1, 2, 1, 3), 4)):
        gens = catalog(case, params).equivariant_generators
        for signs in itertools.product((1, -1), repeat=n + 1):
            ctx = SymmetryContext.from_case(case, params, signs)
            for kappa in (ctx.phi, ctx.psi):
                for g in gens:
                    assert transfer_T(g, kappa) == _transfer_reference(g, kappa.action)
    # random maps under the involutions of one context
    rng = make_rng(11)
    ctx = SymmetryContext.from_case("non_resonant", (2,), (1, -1, 1))
    for _ in range(20):
        g = random_polymap(rng, 2, max_degree=4)
        for kappa in (ctx.phi, ctx.psi):
            assert transfer_T(g, kappa) == _transfer_reference(g, kappa.action)
    # monomial actions other than phi and psi: the formula holds for any map
    gens = catalog("non_resonant", (1,)).equivariant_generators
    samples = [*gens, *(random_polymap(rng, 1, max_degree=3) for _ in range(10))]
    assert _MIXING_INVOLUTION.is_involution()
    for g in samples:
        expected = _transfer_reference(g, _MIXING_INVOLUTION.action)
        assert transfer_T(g, _MIXING_INVOLUTION) == expected
        for element in MONOMIAL_ELEMENTS:
            assert _transfer(g, element.action) == _transfer_reference(g, element.action)


def test_operator_laws_on_random_samples():
    rng = make_rng(6)
    phi = phi_element(2)
    for _ in range(25):
        f = random_polynomial(rng, 2, max_degree=5)
        r, s = reynolds_R(f, phi), reynolds_S(f, phi)
        assert add(r, s) == f
        assert reynolds_R(r, phi) == r
        assert reynolds_S(s, phi) == s
        assert reynolds_S(r, phi).is_zero()
        assert reynolds_R(s, phi).is_zero()


def test_reynolds_match_the_polynomial_path():
    # the term kernel against (f +- f . kappa)/2 by the reference substitute_linear
    rng = make_rng(12)
    for n, kappa in ((2, phi_element(2)), (2, psi_element((-1, 1, -1))), (1, _MIXING_INVOLUTION)):
        for _ in range(10):
            f = random_polynomial(rng, n, max_degree=4)
            pulled = substitute_linear(f, kappa.action)
            assert reynolds_R(f, kappa) == scale(add(f, pulled), HALF)
            assert reynolds_S(f, kappa) == scale(sub(f, pulled), HALF)


def test_transfer_is_module_homomorphism():
    # T(h g) = h T(g) for h invariant under the extended group
    rng = make_rng(7)
    data = catalog("non_resonant", (2,))
    phi = phi_element(2)
    invariants = data.hilbert_basis
    for k in range(10):
        g = random_polymap(rng, 2, max_degree=3)
        h = invariants[k % len(invariants)]
        assert transfer_T(mul_invariant(g, h), phi) == mul_invariant(transfer_T(g, phi), h)


def test_decomposition_memberships():
    rng = make_rng(8)
    phi = phi_element(2)
    ctx = GroupContext((phi,))
    for _ in range(10):
        f = random_real_polynomial(rng, 2, max_degree=5)
        r, s = reynolds_R(f, phi), reynolds_S(f, phi)
        assert membership(r, ctx, "invariant")
        assert membership(s, ctx, "anti_invariant")


def test_operators_demand_involutions():
    nvars = 4
    # x2 -> 2 x2, which squares to x2 -> 4 x2
    stretch = SignedElement(sparse([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), -1)
    f = Polynomial.variable(nvars, 0)
    g = PolyMap((f, Polynomial.zero(nvars)), (Polynomial.zero(nvars),))
    # the verdict is kept per element, so a second call must still refuse
    for _ in range(2):
        for operator, arg in ((reynolds_R, f), (reynolds_S, f), (transfer_T, g)):
            with pytest.raises(ConditionViolated):
                operator(arg, stretch)


def test_extend_basis_non_resonant_unchanged():
    data = catalog("non_resonant", (3,))
    phi = phi_element(3)
    extended = extend_hilbert_basis(data.hilbert_basis, phi)
    assert set(extended) == set(data.hilbert_basis)


def test_extend_basis_rewrites_resonant_square(c3_data):
    # the square of the odd invariant is a polynomial in the others and is
    # pruned away, leaving the five-element basis
    phi = phi_element(3)
    extended = extend_hilbert_basis(c3_data.hilbert_basis, phi)
    expected = {
        normalize_leading(c3_data.hilbert_basis[i]) for i in (0, 1, 2, 3, 5)
    }
    assert set(extended) == expected


def test_extend_basis_type_d_products(c3_data):
    phi = phi_element(3)
    psi = psi_element((-1, 1, -1, 1))  # a0 = -1, twist = -1 at (n1,n2) = (1,2)
    first = extend_hilbert_basis(c3_data.hilbert_basis, phi)
    second = extend_hilbert_basis(first, psi)
    u = {p: f"u{i+1}" for i, p in enumerate(c3_data.hilbert_basis)}
    v1, v2, v3, v4, v6 = (
        c3_data.hilbert_basis[0],
        c3_data.hilbert_basis[1],
        c3_data.hilbert_basis[2],
        c3_data.hilbert_basis[3],
        c3_data.hilbert_basis[5],
    )
    expected = {
        normalize_leading(mul(v1, v1)),
        v2,
        v3,
        v6,
        normalize_leading(mul(v4, v4)),
        normalize_leading(mul(v1, v4)),
    }
    assert set(second) == expected


def test_generators_over_extension_products(c3_data):
    phi = phi_element(3)
    gens = c3_data.equivariant_generators
    images = [transfer_T(g, phi) for g in gens]
    prods = generators_over_extension(c3_data.hilbert_basis, gens, images, phi)
    # only S(v5) = v5 survives, and E(L) = L - T(L) is L for the 6 symmetric
    # generators (T(L) = 0) and 0 for the 6 reversing ones (T(L) = L)
    v5 = c3_data.hilbert_basis[4]
    assert reynolds_S(v5, phi) == v5
    symmetric = [g for g, image in zip(gens, images) if not image]
    assert len(symmetric) == 6
    assert len(prods) == 6
    assert set(prods) == {normalize_leading(mul_invariant(g, v5)) for g in symmetric}


def test_generators_over_extension_trivial_when_all_S_vanish():
    data = catalog("non_resonant", (2,))
    phi = phi_element(2)
    gens = data.equivariant_generators
    images = [transfer_T(g, phi) for g in gens]
    assert generators_over_extension(data.hilbert_basis, gens, images, phi) == ()


@pytest.mark.parametrize(
    "a0,expected_x2_gen",
    [(1, "constant"), (-1, "x1")],
)
def test_projection_non_resonant(a0, expected_x2_gen):
    ctx = SymmetryContext.from_case("non_resonant", (2,), (a0, 1, 1))
    gens = pipeline(ctx).module_generators
    nvars = 6
    if expected_x2_gen == "constant":
        target = PolyMap(
            (Polynomial.zero(nvars), Polynomial.constant(nvars, 1)),
            (Polynomial.zero(nvars),) * 2,
        )
    else:
        target = PolyMap(
            (Polynomial.zero(nvars), Polynomial.variable(nvars, 0)),
            (Polynomial.zero(nvars),) * 2,
        )
    assert target in set(gens)
    assert len(gens) == 3


def test_prune_module_cleans_normalized_candidates():
    ctx = SymmetryContext.from_case("non_resonant", (1,), (1, 1))
    nvars = 4
    zero = Polynomial.zero(nvars)
    l0 = PolyMap((zero, Polynomial.constant(nvars, 1)), (zero,))
    l1 = PolyMap((zero, zero), (scale(Polynomial.variable(nvars, 2), I),))
    ring = pipeline(ctx).ring_basis
    assert prune_ring(normalize_leading(p) for p in ring) == ring

    def clean(gens):
        return prune_module((normalize_leading(g) for g in gens), ring)

    # {(1 + a0) L0} with a0 = 1 reduces to {L0}
    assert clean((scale(l0, 2),)) == (l0,)
    # zero maps are dropped
    assert clean((PolyMap.zero(1), l1)) == (l1,)
    # scalar multiples are deduplicated
    assert clean((l1, scale(l1, 2))) == (l1,)


def test_prune_module_drops_module_redundant_generator(c3_data):
    # u5 * (z1 in slot z1) = u2 * (i conj(z1) z2 gen) - u4 * (i z1 gen)
    phi = phi_element(3)
    H = c3_data.equivariant_generators
    u5 = c3_data.hilbert_basis[4]
    ring = extend_hilbert_basis(c3_data.hilbert_basis, phi)
    candidates = [H[3], H[5], mul_invariant(H[2], u5)]
    kept = prune_module(candidates, ring)
    assert set(kept) == {H[3], H[5]}


def test_prune_ring_keeps_independent_elements(c3_data):
    kept = prune_ring(c3_data.hilbert_basis)
    assert set(kept) == set(c3_data.hilbert_basis)


def test_pipeline_type_a_matches_reference_table(c3_gensets, c3_contexts):
    from references import table1_generators

    for typ in "ABCD":
        gs = c3_gensets[typ]
        ctx = c3_contexts[typ]
        table = GeneratorSet(
            gs.ring_basis, tuple(normalize_leading(g) for g in table1_generators(1, 2, typ)),
            ctx,
        )
        for d in (2, 3):
            ours = module_slice(gs, d)
            theirs = module_slice(table, d)
            assert spans_equal(ours, theirs).equal, (typ, d)


def test_pipeline_ring_bases_per_type(c3_gensets, c3_contexts):
    data = catalog("res_n1n2_C3", (1, 2))
    u1, u2, u3, u4, u6 = (
        data.hilbert_basis[0],
        data.hilbert_basis[1],
        data.hilbert_basis[2],
        data.hilbert_basis[3],
        data.hilbert_basis[5],
    )
    n4 = normalize_leading(u4)
    expected = {
        "A": {u1, u2, u3, n4, u6},
        "B": {u1, u2, u3, normalize_leading(mul(n4, n4)), u6},
        "C": {normalize_leading(mul(u1, u1)), u2, u3, n4, u6},
        "D": {
            normalize_leading(mul(u1, u1)),
            u2,
            u3,
            normalize_leading(mul(n4, n4)),
            normalize_leading(mul(u1, n4)),
            u6,
        },
    }
    for typ, ring in expected.items():
        assert set(c3_gensets[typ].ring_basis) == ring, typ


def test_pipeline_outputs_certified_and_sound(c3_gensets, c3_contexts):
    for typ, gs in c3_gensets.items():
        assert gs.certified
        full = c3_contexts[typ].full_context()
        for p in gs.ring_basis:
            assert membership(p, full, "invariant")
        for g in gs.module_generators:
            assert membership(g, full, "reversible_equivariant")


def _changed_copies(gens, change):
    """(k, copy): generator k with one stored component replaced by each
    polynomial that change(k, component) yields."""
    for k, g in enumerate(gens):
        comps = [*g.x_components, *g.z_components]
        for c, comp in enumerate(comps):
            for changed in change(c, comp):
                copy = comps[:c] + [changed] + comps[c + 1:]
                yield k, PolyMap(copy[:2], copy[2:])


def _scaled_or_dropped(c: int, comp: Polynomial):
    """comp times 2, then comp without each term (and its conjugate term in
    an x component, which stays real)."""
    yield scale(comp, 2)
    for mono in sorted(comp.monomials()):
        dropped = {mono, conj_monomial(mono) if c < 2 else mono}
        yield Polynomial(comp.nvars, {m: v for m, v in comp.terms.items() if m not in dropped})


def _z_times_i(c: int, comp: Polynomial):
    """a nonzero z component times i, which phi sends to the other side."""
    if c >= 2 and comp:
        yield scale(comp, I)


@pytest.mark.parametrize("case, params, n", GOLDEN_REGIMES)
def test_certify_names_the_element_that_fails(case, params, n):
    # the first sign class of each golden regime: a ring element times x2
    # (odd under phi, and the shear no longer kills it), then a generator
    # with one component scaled or one term dropped, the first copy that the
    # Polynomial reference rejects; in the non-resonant regimes every
    # component of every generator is one term paired with itself, so there
    # a z component is multiplied by i instead
    _, ctx, genset = gensets(case, params, n)[0]
    full = ctx.full_context()
    certify(genset.ring_basis, genset.module_generators, full)
    ring = list(genset.ring_basis)
    ring[-1] = mul(ring[-1], Polynomial.variable(2 * n + 2, x_index(2)))
    with pytest.raises(CertificationFailure) as caught:
        certify(ring, genset.module_generators, full)
    assert str(caught.value) == f"ring element is not invariant: {ring[-1]}"
    k, bad = next(
        (k, h)
        for change in (_scaled_or_dropped, _z_times_i)
        for k, h in _changed_copies(genset.module_generators, change)
        if not reference_membership(h, full, "reversible_equivariant")
    )
    gens = list(genset.module_generators)
    gens[k] = bad
    with pytest.raises(CertificationFailure) as caught:
        certify(genset.ring_basis, gens, full)
    assert str(caught.value) == f"generator is not reversible-equivariant: {bad}"


def test_intermediate_generators_span_reference_list(c3_contexts):
    # after the first extension the module spans the full projected list
    from references import intermediate_generators, phi_context, projected_generator_list

    ctx = c3_contexts["A"]
    inter = intermediate_generators(ctx)
    reference = GeneratorSet(
        inter.ring_basis,
        tuple(normalize_leading(g) for g in projected_generator_list(1, 2, 3)),
        ctx,
    )
    for d in (2, 3, 4):
        assert spans_equal(module_slice(inter, d), module_slice(reference, d)).equal
    phi_ctx = phi_context(ctx)
    for g in inter.module_generators:
        assert membership(g, phi_ctx, "reversible_equivariant")


def test_genset_serialization_surfaces(c3_gensets):
    import json

    from birevnf.symmetry_ops import genset_to_json, genset_to_latex, genset_to_text

    gs = c3_gensets["B"]
    payload = json.loads(genset_to_json(gs))
    assert payload["schema"] == "genset-v1"
    assert len(payload["module_generators"]) == len(gs.module_generators)
    latex = genset_to_latex(gs)
    assert latex.count("{") == latex.count("}")
    assert latex.startswith("\\begin{align*}")
    assert genset_to_latex(gs) == latex
    text = genset_to_text(gs)
    assert "ring basis:" in text and "module generators:" in text


def test_product_table_enumeration():
    data = catalog("non_resonant", (1,))
    products = ProductTable(data.hilbert_basis, 4)  # degrees 1, 2
    # x1^4, x1^2 |z1|^2, |z1|^4
    assert len(products[4]) == 3
    assert products[0] == [{(0, 0, 0, 0): (1, 0)}]  # the empty product


# -- the degree-order prune against the reverse-deletion reference -----------


def _reference_weighted_exponents(degrees, target):
    """Exponent tuples e with sum(e_i * degrees_i) == target, lexicographic."""

    def rec(i, remaining, prefix):
        if i == len(degrees):
            if remaining == 0:
                yield prefix
            return
        step = degrees[i]
        for e in range(remaining // step + 1):
            yield from rec(i + 1, remaining - e * step, prefix + (e,))

    yield from rec(0, target, ())


def _reference_ring_products(basis, degree):
    """Each product rebuilt from powers, one exponent tuple at a time."""
    if not basis:
        return []
    out = []
    for exps in _reference_weighted_exponents([u.degree() for u in basis], degree):
        prod = Polynomial.constant(basis[0].nvars, 1)
        for u, e in zip(basis, exps):
            if e:
                prod = mul(prod, power(u, e))
        out.append(prod)
    return out


def _dedupe(elems):
    """The first copy of each element, in order."""
    return list(dict.fromkeys(elems))


def _reference_prune_ring(candidates):
    """Reverse deletion: drop each element in the span of the others' products."""
    elems = [e for e in _dedupe(_canonical(candidates)) if e]
    alive = list(range(len(elems)))
    for idx in reversed(range(len(elems))):
        others = [elems[i] for i in alive if i != idx]
        degree = elems[idx].degree()
        span = Echelon(
            vectorize_polynomial(p) for p in _reference_ring_products(others, degree) if p
        )
        if span.contains(vectorize_polynomial(elems[idx])):
            alive.remove(idx)
    return tuple(elems[i] for i in alive)


def _reference_prune_module(gens, ring_basis):
    """Reverse deletion: drop each generator in the module of the others."""
    elems = [g for g in _dedupe(_canonical(gens)) if g]
    alive = list(range(len(elems)))
    for idx in reversed(range(len(elems))):
        target = elems[idx]
        degree = target.degree()
        span = Echelon()
        for i in alive:
            if i == idx:
                continue
            other = elems[i]
            gap = degree - other.degree()
            if gap < 0:
                continue
            if ring_basis:
                coeffs = _reference_ring_products(ring_basis, gap)
            elif gap == 0:
                coeffs = [Polynomial.constant(other.nvars, 1)]
            else:
                coeffs = []
            for coeff in coeffs:
                if coeff:
                    span.insert(vectorize_polymap(mul_invariant(other, coeff)))
        if span.contains(vectorize_polymap(target)):
            alive.remove(idx)
    return tuple(elems[i] for i in alive)


@pytest.mark.parametrize(
    "case,params,n",
    [("non_resonant", (2,), 2), ("res_n1n2_C3", (1, 2), 3), ("res_n1n2_C3", (2, 3), 3)],
)
def test_prune_matches_reverse_deletion_on_pipeline_candidates(monkeypatch, case, params, n):
    import birevnf.symmetry_ops as ops

    calls = []
    rows = []  # ((generator terms or None, product terms), row) per row built

    def recording(fn):
        def wrapper(*args):
            args = tuple(tuple(a) for a in args)
            start = len(rows)
            kept = fn(*args)
            calls.append((fn, args, kept, rows[start:]))
            return kept
        return wrapper

    def recording_row(gen_terms, product):
        row = module_row(gen_terms, product)
        rows.append(((gen_terms, product), row))
        return row

    def recording_vector(components):
        components = list(components)
        vec = vectorize_terms(components)
        if components and components[0][0] == -1:  # a ring product's row
            rows.append(((None, components[0][1]), vec))
        return vec

    monkeypatch.setattr(ops, "prune_ring", recording(prune_ring))
    monkeypatch.setattr(ops, "prune_module", recording(prune_module))
    monkeypatch.setattr(ops, "module_row", recording_row)
    monkeypatch.setattr(ops, "vectorize_terms", recording_vector)
    contexts = [
        SymmetryContext.from_case(case, params, signs)
        for signs in itertools.product((1, -1), repeat=n + 1)
    ]
    for ctx in contexts:
        pipeline(ctx)
    # one ring and one module prune for the phi step, which every sign class
    # of the linear part shares, then one of each per orbit for the psi step
    # of its representative
    assert len(calls) == 2 + 2 * len({ctx.orbit_psi for ctx in contexts})
    # and one of each for the psi step of every other sign class, asked for
    # directly, so that every psi's candidates are checked
    for ctx in contexts:
        transported(ctx.linear_part, ctx.phi, ctx.psi)
    assert len(calls) == 2 + 2 * 2 ** (n + 1)
    reference = {prune_ring: _reference_prune_ring, prune_module: _reference_prune_module}
    nvars = 2 * n + 2
    products: dict = {}

    def is_product(p, basis):
        degree = p.degree()
        key = (tuple(basis), degree)
        if key not in products:
            products[key] = set(_reference_ring_products(basis, degree))
            if degree == 0:
                products[key].add(Polynomial.constant(nvars, 1))
        return p in products[key]

    checked = 0
    for fn, args, kept, built in calls:
        assert kept == reference[fn](*args)
        # each row built from terms is the Polynomial path's row of a
        # product of the right factors
        for (gen_terms, product), row in built:
            p = polynomial_from_terms(nvars, product)
            if gen_terms is None:
                assert is_product(p, [e for e in kept if e.degree() < p.degree()])
                assert row == vectorize_polynomial(p)
            else:
                g = polymap_from_terms(nvars, gen_terms)
                assert g in kept
                assert is_product(p, args[1])
                assert row == vectorize_polymap(mul_invariant(g, p))
            checked += 1
    assert checked


_REDUNDANCY_CATALOGS = (
    ("non_resonant", (2,)),
    ("res_n1n2_C3", (1, 2)),
    ("res_n1n2_C3", (1, 3)),
)


def _with_redundancies(elems, ring, ops, multiply):
    """`elems` plus scalar multiples, ring multiples and same-degree sums."""
    out = list(elems)
    for kind, i, j, scalar in ops:
        a, b = elems[i % len(elems)], elems[j % len(elems)]
        if kind == "scale":
            out.append(scale(a, scalar))
        elif kind == "ring":
            out.append(multiply(a, ring[j % len(ring)]))
        elif a.degree() == b.degree():
            out.append(add(a, scale(b, scalar)))
    return out


_redundancy_ops = st.lists(
    st.tuples(
        st.sampled_from(("scale", "ring", "sum")),
        st.integers(0, 20),
        st.integers(0, 20),
        st.sampled_from((Fraction(2), Fraction(-1, 3), Fraction(5, 2))),
    ),
    max_size=6,
)


@given(
    which=st.sampled_from(_REDUNDANCY_CATALOGS),
    ops=_redundancy_ops,
    order=st.randoms(use_true_random=False),
)
def test_prune_ring_matches_reverse_deletion_with_redundancies(which, ops, order):
    basis = list(catalog(*which).hilbert_basis)
    candidates = _with_redundancies(basis, basis, ops, mul)
    order.shuffle(candidates)
    assert prune_ring(candidates) == _reference_prune_ring(candidates)


@given(
    which=st.sampled_from(_REDUNDANCY_CATALOGS),
    ops=_redundancy_ops,
    order=st.randoms(use_true_random=False),
)
def test_prune_module_matches_reverse_deletion_with_redundancies(which, ops, order):
    data = catalog(*which)
    ring = data.hilbert_basis
    gens = _with_redundancies(
        list(data.equivariant_generators), ring, ops, mul_invariant
    )
    order.shuffle(gens)
    assert prune_module(gens, ring) == _reference_prune_module(gens, ring)


@pytest.mark.parametrize(
    "case,params", [("non_resonant", (3,)), ("res_n1n2_C3", (1, 2)), ("res_n1n2_Cn", (1, 2, 3))]
)
def test_product_table_matches_exponent_enumeration(case, params):
    basis = catalog(case, params).hilbert_basis
    nvars = basis[0].nvars
    table = ProductTable(basis, nvars)
    # the table's recursion with the reference product: level d holds
    # p * u_i for p in level d - deg(u_i) whose last factor index is at most i
    levels = [[(Polynomial.constant(nvars, 1), 0)]]
    for degree in range(9):
        if degree:
            levels.append([
                (mul(p, u), i)
                for i, u in enumerate(basis)
                if u.degree() <= degree
                for p, last in levels[degree - u.degree()]
                if last <= i
            ])
        level = [polynomial_from_terms(nvars, p) for p in table[degree]]
        assert Counter(level) == Counter(_reference_ring_products(basis, degree)), degree
        assert level == [p for p, _ in levels[degree]], degree


def test_product_table_rejects_degree_zero_elements():
    one = Polynomial.constant(4, 1)
    with pytest.raises(DimensionError):
        ProductTable([one, Polynomial.variable(4, 0)], 4)
    assert ProductTable([Polynomial.variable(4, 0)], 4)[-1] == []


def test_ring_elements_that_are_not_real_valued_are_rejected(c3_data):
    # z1 has degree 1 but is not real-valued; ProductTable checks each
    # ring-basis element once, before any product is built
    z1 = Polynomial.variable(8, z_index(1))
    g = c3_data.equivariant_generators[0]
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, 1, 1))
    with pytest.raises(IncompatibleMatrix):
        ProductTable([z1], 8)
    with pytest.raises(IncompatibleMatrix):
        prune_module([g], [z1])
    with pytest.raises(IncompatibleMatrix):
        module_slice(GeneratorSet((z1,), (g,), ctx), g.degree() + 1)
    with pytest.raises(IncompatibleMatrix):
        prune_ring([z1])


def test_prune_rejects_inhomogeneous_input(c3_data):
    u1, u2 = c3_data.hilbert_basis[:2]
    assert u1.degree() != u2.degree()
    with pytest.raises(DimensionError):
        prune_ring([u1, add(u1, u2)])
    g = c3_data.equivariant_generators[0]
    with pytest.raises(DimensionError):
        prune_module([g, add(g, mul_invariant(g, u2))], c3_data.hilbert_basis)
    # homogeneity is checked before the ring basis is found not real-valued
    z1 = Polynomial.variable(8, z_index(1))
    with pytest.raises(DimensionError):
        prune_module([g, add(g, mul_invariant(g, u2))], [z1])


# -- one involution step: each generator is projected once -------------------


def _regime_id(case, params):
    return f"{case} {','.join(map(str, params))}"


# block count of every golden regime, by id
_GOLDEN_BLOCKS = {_regime_id(case, params): n for case, params, n in GOLDEN_REGIMES}


@pytest.mark.parametrize("regime", [*_GOLDEN_BLOCKS, "mixing"])
@given(data=st.data())
def test_transfer_of_an_odd_multiple_is_the_multiple_of_the_even_part(regime, data):
    # T(s g) = s (g - T(g)) for every kappa-odd s, kappa phi or psi of any
    # sign class of the regime, or the mixing involution, which swaps x1, x2
    if regime == "mixing":
        n, kappa = 1, _MIXING_INVOLUTION
    else:
        n = _GOLDEN_BLOCKS[regime]
        signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * (n + 1)))
        kappa = data.draw(st.sampled_from((phi_element(n), psi_element(signs))))
    rng = data.draw(st.randoms(use_true_random=False))
    g = random_polymap(rng, n, max_degree=3)
    s = reynolds_S(random_real_polynomial(rng, n, max_degree=3), kappa)
    assert transfer_T(mul_invariant(g, s), kappa) == mul_invariant(sub(g, transfer_T(g, kappa)), s)


def _product_then_project(basis, gens, kappa):
    """The candidates of one step as projecting every product S(u_i) L_j gives them.

    The nonzero T(c L_j) for c in {1} and the nonzero S(u_i), rescaled to
    lead 1, on the Polynomial path (`mul_invariant`, then `transfer_T`).
    """
    coefficients = [None] + [s for s in (reynolds_S(u, kappa) for u in basis) if s]
    out = set()
    for c in coefficients:
        for g in gens:
            image = transfer_T(g if c is None else mul_invariant(g, c), kappa)
            if image:
                out.add(normalize_leading(image))
    return out


@pytest.mark.parametrize(
    "case,params",
    [("non_resonant", (2,)), ("non_resonant", (3,)),
     ("res_n1n2_C3", (1, 2)), ("res_n1n2_C3", (1, 3))],
)
def test_step_candidates_are_the_projected_products(case, params, monkeypatch):
    # both steps of every sign class offer prune_module exactly the set that
    # projecting every product S(u_i) L_j gives
    offered = []
    prune = symmetry_ops.prune_module
    monkeypatch.setattr(
        symmetry_ops, "prune_module",
        lambda gens, ring: offered.append(set(gens)) or prune(gens, ring),
    )
    linear = linear_part_for_case(case, params)
    data, n = closure_data(linear), linear.n
    for signs in itertools.product((1, -1), repeat=n + 1):
        ctx = SymmetryContext.from_case(case, params, signs)
        basis, gens = data.hilbert_basis, data.equivariant_generators
        for kappa in (ctx.phi, ctx.psi):
            expected = _product_then_project(basis, gens, kappa)
            offered.clear()
            basis, gens = _transport(basis, gens, kappa)
            assert offered == [expected], (signs, kappa.name)


def test_project_generators_rescales_and_drops_repeats(c3_data):
    phi = phi_element(3)
    images = [transfer_T(g, phi) for g in c3_data.equivariant_generators]
    nonzero = [image for image in images if image]
    doubled = [*images, *(scale(image, -2) for image in nonzero)]
    expected = tuple(_dedupe(normalize_leading(image) for image in nonzero))
    assert project_generators(doubled) == expected
    assert project_generators([]) == ()


@functools.cache
def _unshared_phi_step(linear):
    """The catalog of linear transported along phi, with no kept transport
    step: the same for every context of the linear part."""
    return _transport(*closure_data(linear), phi_element(linear.n))


def _unshared_pipeline(ctx):
    """The pipeline composed step by step, with no kept transport step: the
    context's own psi step from `_unshared_phi_step`."""
    basis, gens = _transport(*_unshared_phi_step(ctx.linear_part), ctx.psi)
    certify(basis, gens, ctx.full_context())
    return GeneratorSet(basis, gens, ctx, certified=True)


def test_shared_phi_step_gives_the_unshared_generator_sets():
    # each linear part misses its catalog and its phi step once, and each
    # orbit the psi step of its representative once; a second pass over the
    # same contexts only hits, and gives the same generator sets
    linear_parts = [
        linear_part_for_case(case, params)
        for case, params in [
            ("non_resonant", (2,)),
            ("non_resonant", (3,)),
            ("res_n1n2_C3", (1, 2)),
            ("res_n1n2_C3", (2, 3)),
        ]
    ]
    contexts = [ctx for linear in linear_parts for ctx in enumerate_involution_pairs(linear)]
    orbits = len({(ctx.linear_part, ctx.orbit_psi) for ctx in contexts})
    assert orbits < len(contexts)
    assert 2 * len(linear_parts) + orbits <= TRANSPORT_CACHE
    expected = {ctx: _unshared_pipeline(ctx) for ctx in contexts}
    for order in (contexts, contexts[::-1]):
        transported.cache_clear()
        for npass in range(2):
            before = transported.cache_info()
            for ctx in order:
                genset = pipeline(ctx)
                want = expected[ctx]
                assert genset.certified and genset.context is ctx
                assert genset.ring_basis == want.ring_basis
                assert genset.module_generators == want.module_generators
                assert genset_to_text(genset) == genset_to_text(want)
            info = transported.cache_info()
            misses, hits = info.misses - before.misses, info.hits - before.hits
            if npass == 0:
                assert misses == 2 * len(linear_parts) + orbits
                assert hits == len(contexts) - len(linear_parts)
            else:
                assert (misses, hits) == (0, len(contexts))


def test_kept_phi_steps_stay_within_the_bound():
    # every sign class of more linear parts than the bound has room for:
    # the memo drops its least recently used entries and never recomputes
    # a catalog, a phi step or an orbit's psi step while their classes run
    linear_parts = [LinearPart(n) for n in (1, 2, 3)] + [
        LinearPart(2, ((a, b),))
        for a in range(1, 5)
        for b in (-3, -2, -1, 1, 2, 3)
        if math.gcd(a, b) == 1
    ]
    entries = 0
    for linear in linear_parts:
        contexts = enumerate_involution_pairs(linear)
        entries += 2 + len({ctx.orbit_psi for ctx in contexts})
        for ctx in contexts:
            pipeline(ctx)
            assert transported.cache_info().currsize <= TRANSPORT_CACHE
    assert entries > TRANSPORT_CACHE
    info = transported.cache_info()
    assert (info.misses, info.currsize) == (entries, TRANSPORT_CACHE)


def _count_membership(monkeypatch) -> list:
    """Each `membership` call that `certify` makes, as (obj, group, kind)."""
    calls = []
    check = symmetry_ops.membership
    monkeypatch.setattr(
        symmetry_ops, "membership", lambda *args: calls.append(args) or check(*args)
    )
    return calls


def test_spellings_of_one_lattice_share_the_kept_steps(monkeypatch):
    # equal linear parts are one key: the second and third spelling find
    # the psi step of the first, certified once when the first made it,
    # and every artifact keeps its own spelling
    calls = _count_membership(monkeypatch)
    spellings = [((1, -2),), ((-1, 2),), ((2, -4),)]
    contexts = [SymmetryContext.build(LinearPart(2, rels), (1, 1, -1)) for rels in spellings]
    gensets = []
    for ctx in contexts:
        before = len(calls)
        gensets.append(pipeline(ctx))
        assert (len(calls) > 0) == (ctx is contexts[0])
        calls[before:] = []
    info = transported.cache_info()
    assert (info.misses, info.hits) == (3, 2)
    for rels, ctx, genset in zip(spellings, contexts, gensets):
        assert genset.certified and genset.context is ctx
        assert genset_to_text(genset) == genset_to_text(gensets[0])
        nf = json.loads(emit(assemble(genset, ctx.linear_part, 4), "json"))
        assert nf["resonance_relations"] == [list(r) for r in rels]


def test_a_generator_set_acts_on_its_contexts_coordinates():
    # a non_resonant (2) generator set on the non_resonant (3) context is
    # refused, whichever part of it is on the wrong coordinates
    small = pipeline(SymmetryContext.from_case("non_resonant", (2,), (1, 1, 1)))
    ctx = SymmetryContext.from_case("non_resonant", (3,), (1, 1, 1, 1))
    for ring, gens in [
        (small.ring_basis, small.module_generators),
        (small.ring_basis, ()),
        ((), small.module_generators),
    ]:
        with pytest.raises(DimensionError):
            GeneratorSet(ring, gens, ctx)


def test_the_public_constructor_refuses_an_element_that_is_not_homogeneous():
    ctx = SymmetryContext.from_case("non_resonant", (1,), (1, 1))
    x1, x2 = Polynomial.variable(4, 0), Polynomial.variable(4, 1)
    mixed = add(x1, mul(x1, x1))
    zero = Polynomial.zero(4)
    with pytest.raises(CertificationFailure, match="ring basis"):
        GeneratorSet((x1, mixed), (), ctx)
    with pytest.raises(CertificationFailure, match="module generators"):
        GeneratorSet((x1,), (PolyMap((mixed, mul(x2, x1)), (zero,)),), ctx)


def test_a_warm_pipeline_checks_no_element_again(monkeypatch):
    # the kept rung's elements were checked homogeneous when pruned, so a
    # later call on it runs no homogeneity check; the set is the one the
    # public constructor builds, with its checks, from the same fields
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1))
    first = pipeline(ctx)
    checks = Counter()

    def counted(cls):
        real = cls.is_homogeneous
        return lambda e: checks.update([cls]) or real(e)

    for cls in (Polynomial, PolyMap):
        monkeypatch.setattr(cls, "is_homogeneous", counted(cls))
    again = pipeline(ctx)
    assert checks == Counter()
    rung = transported(ctx.linear_part, ctx.phi, ctx.orbit_psi)
    assert again == first == GeneratorSet(*rung, ctx, certified=True)
    assert checks[Polynomial] and checks[PolyMap]


def test_rendering_a_generator_set_twice_builds_each_text_once(monkeypatch):
    # each polynomial's text in each notation is built the first time it is
    # asked for and kept; a second rendering of the set and of its normal
    # form, in every format, builds none and prints the same
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, 1, 1))
    genset = pipeline(ctx)
    nf = assemble(genset, ctx.linear_part, 4)
    built = Counter()
    rendered = poly._rendered

    def counted(p, notation):
        built.update([(id(p), notation)])
        return rendered(p, notation)

    monkeypatch.setattr(poly, "_rendered", counted)

    def outputs():
        return [f(x, fmt) for f, x in ((emit_genset, genset), (emit, nf)) for fmt in FORMATS]

    first = outputs()
    assert built and max(built.values()) == 1
    count = sum(built.values())
    assert outputs() == first and sum(built.values()) == count


@pytest.mark.parametrize("case, params, n", GOLDEN_REGIMES)
def test_every_rung_passes_membership_against_its_own_group(case, params, n):
    # the catalog, the phi step and the psi step of every sign class are
    # the generator sets of the closure group, of it extended by phi and
    # of it extended by phi and psi
    classes = gensets(case, params, n)
    linear = classes[0][1].linear_part
    rungs = [((), closure_data(linear))]
    rungs.append(((classes[0][1].phi,), transported(linear, classes[0][1].phi)))
    rungs += [((ctx.phi, ctx.psi), (gs.ring_basis, gs.module_generators)) for _, ctx, gs in classes]
    for involutions, (basis, gens) in rungs:
        group = GroupContext(involutions, linear)
        assert all(membership(p, group, "invariant") for p in basis)
        assert all(membership(g, group, "reversible_equivariant") for g in gens)


def test_a_kept_rung_runs_no_membership_check(monkeypatch):
    # the first call checks each element of the three rungs once, against
    # the rung's own group; the second, on an equal but distinct context,
    # runs no transport step and no membership check at all
    calls = _count_membership(monkeypatch)
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1))
    first = pipeline(ctx)
    linear = ctx.linear_part
    expected = []
    for involutions in ((), (ctx.phi,), (ctx.phi, ctx.psi)):
        basis, gens = transported(linear, *involutions)
        group = GroupContext(involutions, linear)
        expected += [(p, group, "invariant") for p in basis]
        expected += [(g, group, "reversible_equivariant") for g in gens]
    assert calls == expected
    steps = []
    transport = symmetry_ops._transport
    monkeypatch.setattr(
        symmetry_ops, "_transport", lambda *args: steps.append(args) or transport(*args)
    )
    # `from_case` would hand back ctx itself; build an equal, distinct context
    again = SymmetryContext.build(linear_part_for_case("res_n1n2_C3", (1, 2)), (1, 1, -1, 1))
    assert again == ctx and again is not ctx
    calls.clear()
    second = pipeline(again)
    assert steps == [] and calls == []
    assert second.certified and second.context is again
    assert second.ring_basis == first.ring_basis
    assert second.module_generators == first.module_generators


@pytest.mark.parametrize("case, params, n", GOLDEN_REGIMES)
def test_the_pipeline_of_every_sign_vector_is_its_own_unshared_pipeline(case, params, n):
    # every sign vector, both a0: the psi step of the orbit's representative
    # gives what the vector's own psi step gives, with the caller's context
    for signs in itertools.product((1, -1), repeat=n + 1):
        ctx = SymmetryContext.from_case(case, params, signs)
        genset, want = pipeline(ctx), _unshared_pipeline(ctx)
        assert genset.certified and genset.context is ctx
        assert genset.ring_basis == want.ring_basis
        assert genset.module_generators == want.module_generators


@pytest.mark.parametrize("case, params, n", GOLDEN_REGIMES)
def test_membership_gives_one_verdict_under_psi_and_the_orbit_psi(case, params, n):
    # <S, phi, psi> and <S, phi, orbit psi> are one group with one sign map:
    # every element of every kept rung of the regime, in and out of the
    # group, gets the same verdict from both
    contexts = [
        SymmetryContext.from_case(case, params, signs)
        for signs in itertools.product((1, -1), repeat=n + 1)
    ]
    linear = contexts[0].linear_part
    rungs = {(), (contexts[0].phi,)} | {(ctx.phi, ctx.orbit_psi) for ctx in contexts}
    elements = set()
    for involutions in rungs:
        basis, gens = transported(linear, *involutions)
        elements |= {(p, "invariant") for p in basis}
        elements |= {(g, "reversible_equivariant") for g in gens}
    verdicts = set()
    for ctx in contexts:
        shared = GroupContext((ctx.phi, ctx.orbit_psi), linear)
        for obj, kind in elements:
            verdict = membership(obj, ctx.full_context(), kind)
            assert verdict == membership(obj, shared, kind), (ctx.signs, kind, str(obj))
            verdicts.add(verdict)
    assert verdicts == {False, True}


def test_a_second_member_of_an_orbit_runs_no_transport(monkeypatch):
    # 1,-1,-1,-1 is in the Type B orbit of 1,1,-1,1: once the first has
    # made the orbit's psi step, the second runs no step and no check, and
    # its generator set carries its own context
    steps = []
    transport = symmetry_ops._transport
    monkeypatch.setattr(
        symmetry_ops, "_transport", lambda *args: steps.append(args) or transport(*args)
    )
    calls = _count_membership(monkeypatch)
    first = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1))
    second = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, -1, -1, -1))
    assert first.orbit_psi is first.psi and second.orbit_psi == first.psi != second.psi
    shared = pipeline(first)
    assert len(steps) == 2 and calls
    steps.clear()
    calls.clear()
    genset = pipeline(second)
    assert steps == [] and calls == []
    assert genset.certified and genset.context is second
    assert (genset.ring_basis, genset.module_generators) == (
        shared.ring_basis, shared.module_generators
    )
    other = json.loads(genset_to_json(genset))
    assert other.pop("signs") == [1, -1, -1, -1]
    assert other == {k: v for k, v in json.loads(genset_to_json(shared)).items() if k != "signs"}


def test_the_pipeline_of_thirty_free_blocks_ends():
    # 2^31 sign vectors: the orbit's psi comes from an elimination, not a listing
    ctx = SymmetryContext.from_case("non_resonant", (30,), (1,) + (-1,) * 30)
    genset = pipeline(ctx)
    assert ctx.orbit_psi == psi_element((1,) * 31)
    assert genset.certified and len(genset.ring_basis) == len(genset.module_generators) == 31


# a map whose x1 component holds x2: the shear condition fails, so no
# group of the tower has it as a reversible-equivariant generator
_NOT_EQUIVARIANT = PolyMap(
    (Polynomial.variable(8, x_index(2)), Polynomial.zero(8)), (Polynomial.zero(8),) * 3
)


@pytest.mark.parametrize("rung, kept", [("catalog", 0), ("phi step", 1), ("psi step", 2)])
def test_a_failing_rung_raises_on_every_call_and_is_never_kept(monkeypatch, rung, kept):
    if rung == "catalog":
        data = symmetry_ops.closure_data

        def corrupted(linear):
            basis, gens = data(linear)
            return basis, (*gens, _NOT_EQUIVARIANT)

        monkeypatch.setattr(symmetry_ops, "closure_data", corrupted)
    else:
        transport = symmetry_ops._transport

        def corrupted(basis, gens, kappa):
            basis, gens = transport(basis, gens, kappa)
            if f"{kappa.name} step" == rung:
                gens += (_NOT_EQUIVARIANT,)
            return basis, gens

        monkeypatch.setattr(symmetry_ops, "_transport", corrupted)
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1))
    for _ in range(2):
        with pytest.raises(CertificationFailure) as caught:
            pipeline(ctx)
        element = f"generator is not reversible-equivariant: {_NOT_EQUIVARIANT}"
        assert str(caught.value) == f"{rung} is not certified: {element}"
        assert isinstance(caught.value.__cause__, CertificationFailure)
        assert str(caught.value.__cause__) == element
        assert transported.cache_info().currsize == kept
