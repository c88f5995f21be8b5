"""Brute-force degree slices, module slices, and span comparisons."""

import pytest

from birevnf.continuous import SymmetryContext
from birevnf.errors import DimensionError, ResourceLimit
from birevnf.group import GroupContext, membership
from birevnf.oracle import (
    DEFAULT_MONOMIAL_LIMIT,
    FUNCTION_KINDS,
    MAP_KINDS,
    DegreeSlice,
    _defect_images,
    _from_records,
    _parameters,
    module_slice,
    slice_space,
    spans_equal,
)
from birevnf.poly import Polynomial
from birevnf.symmetry_ops import GeneratorSet, pipeline, ring_products

from conftest import MONOMIAL_ELEMENTS
from reference_oracle import (
    _function_constraints,
    _function_parameters,
    _map_constraints,
    _map_parameters,
    slice_space_naive,
    weight_defect,
)


@pytest.fixture(scope="module")
def nonres1():
    return SymmetryContext.from_case("non_resonant", (1,), (1, 1))


def test_degree_zero_anti_invariants_vanish(nonres1):
    sl = slice_space(nonres1.full_context(), 0, "anti_invariant")
    assert sl.dimension == 0


def test_degree_zero_invariants_are_constants(nonres1):
    sl = slice_space(nonres1.full_context(), 0, "invariant")
    assert sl.dimension == 1
    assert sl.basis[0] == Polynomial.constant(4, 1)


def test_degree_two_reversible_equivariants_nonresonant(nonres1):
    # frozen via two independent implementations and the membership predicate:
    # the exhaustive slice, the unfiltered naive slice, and per-element checks
    full = nonres1.full_context()
    sl = slice_space(full, 2, "reversible_equivariant")
    naive = slice_space_naive(full, 2, "reversible_equivariant")
    assert sl.dimension == 3
    assert naive.dimension == 3
    assert spans_equal(sl, naive).equal
    for g in sl.basis:
        assert membership(g, full, "reversible_equivariant")


@pytest.mark.parametrize("kind", ["invariant", "anti_invariant"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_naive_cross_check_functions(nonres1, kind, degree):
    full = nonres1.full_context()
    a = slice_space(full, degree, kind)
    b = slice_space_naive(full, degree, kind)
    assert a.dimension == b.dimension
    if a.dimension:
        assert spans_equal(a, b).equal


def test_naive_cross_check_resonant_maps():
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1))
    full = ctx.full_context()
    for degree in (2, 3):
        a = slice_space(full, degree, "reversible_equivariant")
        b = slice_space_naive(full, degree, "reversible_equivariant")
        assert a.dimension == b.dimension
        if a.dimension:
            assert spans_equal(a, b).equal


def _torus_admissible(linear, obj) -> bool:
    """Every monomial of every component has its component's torus weight."""
    if isinstance(obj, Polynomial):
        comps = ((None, obj),)
    else:
        comps = enumerate((*obj.x_components, *obj.z_components))
    return all(
        weight_defect(mono, w) == (0 if c is None else linear.component_weight(c, w))
        for c, poly in comps
        for mono in poly.monomials()
        for w in linear.torus_weight_rows()
    )


@pytest.mark.parametrize(
    "case,params,signs",
    [
        ("non_resonant", (2,), (1, -1, 1)),
        ("res_n1n2_C3", (1, 2), (1, 1, -1, 1)),
        ("res_double_C4", (1, 2, 1, 3), (1, 1, -1, 1, 1)),
    ],
)
def test_compiled_rows_match_the_polymap_path(case, params, signs):
    # the compiled parameters are the torus-admissible naive parameters in
    # the same order, and each one's defect rows are the PolyMap path's rows
    ctx = SymmetryContext.from_case(case, params, signs)
    full = ctx.full_context()
    linear = ctx.linear_part
    for degree in (2, 3, 4):
        for kind in FUNCTION_KINDS + MAP_KINDS:
            functions = kind in FUNCTION_KINDS
            if functions:
                naive = _function_parameters(linear.nvars, degree)
                constraints = _function_constraints
            else:
                naive = _map_parameters(linear.nblocks, degree)
                constraints = _map_constraints
            naive = [p for p in naive if _torus_admissible(linear, p)]
            records = _parameters(linear, degree, kind, DEFAULT_MONOMIAL_LIMIT)
            compiled = [
                _from_records(records, {k: 1}, linear.nvars, functions)
                for k in range(len(records))
            ]
            assert compiled == naive, (degree, kind)
            images = _defect_images(full, kind, records)
            for param, rows in zip(naive, images):
                assert rows == constraints(full, kind, param), (degree, kind, param)


@pytest.mark.parametrize("element", MONOMIAL_ELEMENTS)
def test_compiled_slices_match_naive_for_other_monomial_actions(nonres1, element):
    # an x1-x2 swap with z -> i conj(z), and a scaling by 1/2 and 1 + 2i
    context = GroupContext((element,), nonres1.linear_part)
    dims = []
    for kind in FUNCTION_KINDS + MAP_KINDS:
        for degree in (1, 2, 3):
            a = slice_space(context, degree, kind)
            b = slice_space_naive(context, degree, kind)
            assert a.dimension == b.dimension, (kind, degree)
            assert spans_equal(a, b).equal, (kind, degree)
            dims.append(a.dimension)
    assert sum(dims) > 0


def test_budget_counts_admissible_monomials():
    # 251,940 raw (component, monomial) pairs at degree 12, far fewer of them
    # torus-admissible: the compiled slice fits the default bound, the naive
    # one, which keeps the raw count, does not
    ctx = SymmetryContext.from_case("res_n1n2_C3", (3, 5), (1, 1, -1, 1))
    full = ctx.full_context()
    assert slice_space(full, 12, "reversible_equivariant").dimension == 252
    with pytest.raises(ResourceLimit):
        slice_space_naive(full, 12, "reversible_equivariant")


def test_slice_basis_elements_pass_membership(nonres1):
    full = nonres1.full_context()
    for kind in ("invariant", "anti_invariant"):
        for d in (1, 2, 3):
            for p in slice_space(full, d, kind).basis:
                assert membership(p, full, kind)
    for kind in ("equivariant", "reversible_equivariant"):
        for d in (1, 2):
            for g in slice_space(full, d, kind).basis:
                assert membership(g, full, kind)


def test_equivariant_slices_nonresonant(nonres1):
    # degree 0: constants fail the shear and reversing identities;
    # degree 1: the x-block identity map and the rotation-block identity
    full = nonres1.full_context()
    assert slice_space(full, 0, "equivariant").dimension == 0
    d1 = slice_space(full, 1, "equivariant")
    assert d1.dimension == 2
    rendered = {str(b) for b in d1.basis}
    assert rendered == {"(x1, x2, 0)", "(0, 0, z1)"}
    # degree 2 is the degree-1 slice multiplied by x1
    d2 = slice_space(full, 2, "equivariant")
    assert {str(b) for b in d2.basis} == {"(x1^2, x1*x2, 0)", "(0, 0, x1*z1)"}


def test_module_slice_trivial_cases(nonres1):
    gs = pipeline(nonres1)
    # degree below every generator degree: the only generator degrees are 0,1
    high_only = GeneratorSet(
        gs.ring_basis, tuple(g for g in gs.module_generators if g.degree() == 1), nonres1
    )
    assert module_slice(high_only, 0).dimension == 0
    # a single generator with no matching invariants contributes one element
    single = GeneratorSet((), (gs.module_generators[0],), nonres1)
    d = gs.module_generators[0].degree()
    assert module_slice(single, d).dimension == 1


def test_module_slice_matches_oracle(nonres1):
    gs = pipeline(nonres1)
    full = nonres1.full_context()
    for d in (2, 3, 4, 5):
        oracle = slice_space(full, d, "reversible_equivariant")
        module = module_slice(gs, d)
        assert spans_equal(oracle, module).equal


def test_module_slice_invariant_under_permutation_and_scaling(nonres1):
    gs = pipeline(nonres1)
    reordered = GeneratorSet(
        tuple(reversed(gs.ring_basis)),
        tuple(reversed([g.scale(3) for g in gs.module_generators])),
        nonres1,
    )
    for d in (2, 3, 4):
        a = module_slice(gs, d)
        b = module_slice(reordered, d)
        assert a.dimension == b.dimension
        assert spans_equal(a, b).equal


def test_module_slice_basis_is_canonical():
    # the reduced basis of a span is unique, so reordering and rescaling the
    # ring basis and the generators must give the very same basis elements
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1))
    gs = pipeline(ctx)
    reordered = GeneratorSet(
        tuple(reversed(gs.ring_basis)),
        tuple(reversed([g.scale(3) for g in gs.module_generators])),
        ctx,
    )
    a = module_slice(gs, 5)
    b = module_slice(reordered, 5)
    assert a.dimension > 0
    assert a.basis == b.basis


def test_spans_equal_examples(nonres1):
    x1 = Polynomial.variable(4, 0)
    x2 = Polynomial.variable(4, 1)
    a = DegreeSlice(1, "invariant", (x1,))
    assert spans_equal(a, a).equal
    b = DegreeSlice(1, "invariant", (x1.scale(2),))
    assert spans_equal(a, b).equal
    c = DegreeSlice(1, "invariant", (x2,))
    cmp = spans_equal(a, c)
    assert not cmp.equal
    assert cmp.witness == x2
    with pytest.raises(DimensionError):
        spans_equal(a, DegreeSlice(2, "invariant", ()))


def test_resource_limit(nonres1):
    with pytest.raises(ResourceLimit):
        slice_space(nonres1.full_context(), 6, "reversible_equivariant", limit=10)
    gs = pipeline(nonres1)
    with pytest.raises(ResourceLimit):
        module_slice(gs, 6, limit=2)


@pytest.mark.parametrize(
    "case,params,signs",
    [
        ("res_n1n2_C3", (1, 2), (1, 1, -1, 1)),
        ("res_n1n2_C3", (2, 3), (1, -1, 1, 1)),
        ("res_n1n2_Cn", (1, 2, 3), (1, 1, 1, -1)),
    ],
)
def test_ring_basis_products_span_the_invariant_slices(case, params, signs):
    # the Hilbert basis is complete up to its top degree: its products span
    # every oracle invariant slice, not only a subspace of it
    ctx = SymmetryContext.from_case(case, params, signs)
    gs = pipeline(ctx)
    for degree in range(max(u.degree() for u in gs.ring_basis) + 1):
        products = tuple(p for p in ring_products(gs.ring_basis, degree) if p)
        ours = DegreeSlice(degree, "invariant", products)
        oracle = slice_space(ctx.full_context(), degree, "invariant")
        assert spans_equal(ours, oracle).equal, degree
