"""Brute-force degree slices, module slices, and span comparisons."""

import hashlib
import itertools
import math
import re
import sys
import threading
from functools import reduce
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birevnf.continuous import LinearPart, SymmetryContext, linear_part_for_case, phi_element
from birevnf.errors import DimensionError, ResourceLimit
from birevnf.group import GroupContext, SignedElement, membership
from birevnf.linalg import Echelon, vectorize
from birevnf import oracle
from birevnf.oracle import (
    DEFAULT_MONOMIAL_LIMIT,
    FUNCTION_KINDS,
    DegreeSlice,
    MAP_KINDS,
    SYSTEM_BUDGET,
    SpanComparison,
    SystemMemo,
    module_slice,
    slice_space,
    spans_equal,
)
from birevnf.poly import PolyMap, Polynomial, polynomial_from_terms
from birevnf import symmetry_ops
from birevnf.symmetry_ops import GeneratorSet, pipeline, transported

from conftest import MONOMIAL_ELEMENTS, dense, mat_mul, slice_of
from references import phi_context
from test_continuous import DRAWN_LINEAR_PARTS, _drawn_linear_part
from test_golden_gensets import REGIMES
from reference_oracle import (
    _function_parameters,
    _map_parameters,
    add,
    conj,
    reference_infinitesimal_ok,
    scale,
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


def _naive_admissible(linear, degree: int, functions: bool) -> list:
    if functions:
        naive = _function_parameters(linear.nvars, degree)
    else:
        naive = _map_parameters(linear.nblocks, degree)
    return [p for p in naive if _torus_admissible(linear, p)]


# the first three keep the test ids they had when only they were checked
COMPILED_ROW_REGIMES = [
    ("non_resonant", (2,), 2),
    ("res_n1n2_C3", (1, 2), 3),
    ("res_double_C4", (1, 2, 1, 3), 4),
    ("non_resonant", (1,), 1),
    ("non_resonant", (3,), 3),
    ("res_n1n2_C3", (1, 3), 3),
    ("res_n1n2_C3", (2, 3), 3),
    ("res_n1n2_Cn", (1, 2, 3), 3),
]


def _sign_map_contexts(ctx: SymmetryContext) -> list:
    """The contexts of phi alone and of (phi, psi) under each sign map."""
    phi, psi = ctx.phi, ctx.psi
    return [phi_context(ctx)] + [
        GroupContext(
            (SignedElement(phi.rows, s, phi.name), SignedElement(psi.rows, t, psi.name)),
            ctx.linear_part,
        )
        for s, t in ((-1, -1), (1, -1), (-1, 1), (1, 1))
    ]


@pytest.mark.parametrize(
    "case,params,signs",
    [
        (case, params, sign_vector)
        for case, params, n in COMPILED_ROW_REGIMES
        for sign_vector in ((1,) * (n + 1), (-1,) * (n + 1))
    ],
)
def test_orbit_rows_are_the_naive_rows(case, params, signs):
    # on every regime, its first and last sign vector, each kind: the orbit
    # rows are the rows the naive oracle solves for, byte for byte, in the
    # full context (the flip filter) and, once per regime, in phi's; the
    # naive slice costs the most at the most blocks, so the degrees stop
    # lower there
    ctx = SymmetryContext.from_case(case, params, signs)
    top = max(5 - ctx.nblocks, 2)
    contexts = [(ctx.full_context(), top)] + [(phi_context(ctx), top - 1)] * (signs[0] > 0)
    for context, top in contexts:
        for degree in range(top + 1):
            for kind in FUNCTION_KINDS + MAP_KINDS:
                naive = slice_space_naive(context, degree, kind).rows
                assert slice_space(context, degree, kind).rows == naive, (degree, kind)


@settings(max_examples=12, deadline=None)
@given(DRAWN_LINEAR_PARTS, st.data())
def test_drawn_linear_parts_slice_as_the_naive_oracle(drawn, data):
    # two sign classes of a drawn linear part, the second a hit on the kept
    # systems of the first when their a0 agree, each kind at a drawn degree
    linear = _drawn_linear_part(drawn)
    degree = data.draw(st.integers(0, 2))
    for _ in range(2):
        signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * (linear.n + 1)))
        full = SymmetryContext.build(linear, signs).full_context()
        for kind in FUNCTION_KINDS + MAP_KINDS:
            naive = slice_space_naive(full, degree, kind).rows
            assert slice_space(full, degree, kind).rows == naive, (signs, kind)


@pytest.mark.parametrize(
    "case,params,top",
    [("non_resonant", (1,), 5), ("non_resonant", (2,), 5), ("res_n1n2_C3", (1, 2), 3)],
)
def test_the_equivariant_basis_is_the_naive_slice_of_no_element(case, params, top):
    # a context of no element slices E_d itself: its records are the rows
    # the naive oracle solves for the torus and the shear alone; the
    # resonant regime's naive slice costs the most, so it stops at degree 3
    empty = GroupContext((), linear_part_for_case(case, params))
    for degree in range(top + 1):
        for kind in ("invariant", "equivariant"):
            span = slice_space(empty, degree, kind)
            assert span.rows == slice_space_naive(empty, degree, kind).rows, (degree, kind)


@pytest.mark.parametrize("case,params,n", COMPILED_ROW_REGIMES)
def test_every_equivariant_record_meets_the_torus_and_the_shear(case, params, n):
    # each record of E_d, at degrees 0..5, meets the torus and shear
    # conditions on whole Polynomials
    empty = GroupContext((), linear_part_for_case(case, params))
    checked = 0
    for degree in range(6):
        for kind in ("invariant", "equivariant"):
            basis = slice_space(empty, degree, kind).basis
            assert all(reference_infinitesimal_ok(empty.continuous, e, kind) for e in basis)
            checked += len(basis)
    assert checked > 0


# sha256 of the newline-joined reprs of `slice_space(...).rows` at each
# degree, recorded when the slices were solved by elimination: the rows
# keep their entries, their order and each row's key order past the
# degrees of the goldens
HIGH_DEGREE_ROWS = {
    ("res_n1n2_C3", (3, 5), (1, 1, -1, 1), range(6, 18)): {
        "equivariant":
            "78ce96065c6450817c94fac22d90dd366fb3190a81bec90b1542503e084b4a9f",
        "reversible_equivariant":
            "deafaa713adb74a3834066b45adcca88c7c94e7b519e83eefbd6bdb3cb1493c2",
    },
    ("res_double_C4", (1, 2, 1, 3), (1, 1, 1, 1, 1), range(6, 10)): {
        "equivariant":
            "03d285c7b848518022e776c59ea3aacb923509f147ebbcdc4b258fd6540463b0",
        "reversible_equivariant":
            "0fca90c58de367a28d63616522be74c217192c14a3c78d3471debe8e06600f48",
    },
}


@pytest.mark.parametrize("regime", HIGH_DEGREE_ROWS, ids=lambda regime: regime[0])
def test_high_degree_rows_keep_their_bytes(monkeypatch, regime):
    case, params, signs, degrees = regime
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
    full = SymmetryContext.from_case(case, params, signs).full_context()
    for kind, digest in HIGH_DEGREE_ROWS[regime].items():
        text = "\n".join(repr(slice_space(full, d, kind).rows) for d in degrees)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, kind


def _reference_flip(elements) -> tuple | None:
    """The diagonal of D = B A, from the dense product of the last two
    elements, when it is a sign flip that scales x1 and x2 alike; else None."""
    if len(elements) < 2:
        return None
    product = mat_mul(dense(elements[-1]), dense(elements[-2]))
    diagonal = (row[i] for i, row in enumerate(product))
    flip = tuple(d.re if d in (1, -1) else 0 for d in diagonal)
    return flip if 0 not in flip and flip[0] == flip[1] else None


def _character(flip: tuple, key) -> int:
    """chi_D(m) d_c of the column key (c, (degree, m), part): the product of
    D's entries to the exponents of m, times D's entry at c's coordinate."""
    comp, (_, mono), _ = key
    value = 1 if comp < 0 else flip[comp if comp < 2 else 2 * comp - 2]
    return value * math.prod(d**e for d, e in zip(flip, mono))


@pytest.mark.parametrize("case, params, n", REGIMES)
def test_the_parity_filter_picks_the_rows_of_the_character(case, params, n):
    # every sign vector, phi alone and (phi, psi) under each sign map, each
    # kind at degrees 0..4: `_flip` names the entries -1 of the diagonal of
    # D = B A, every key of a kept row has one character, and the filter
    # picks the kept rows whose character is s_A s_B, as `_character` reads
    # it off the product of the actions
    picked: dict = {}
    for signs in itertools.product((1, -1), repeat=n + 1):
        ctx = SymmetryContext.from_case(case, params, signs)
        for context in _sign_map_contexts(ctx):
            elements = context.elements
            flip = _reference_flip(elements)
            mask = None if flip is None else sum(1 << i for i, d in enumerate(flip) if d < 0)
            assert oracle._flip(elements) == mask, (signs, elements)
            if flip is None:
                continue
            for kind in FUNCTION_KINDS + MAP_KINDS:
                want = oracle._sign(elements[-2], kind) * oracle._sign(elements[-1], kind)
                for degree in range(5):
                    key = (elements[:-1], flip, want, degree, kind)
                    if key not in picked:
                        system = _kept_system(context.continuous, elements[:-1], degree, kind)
                        characters = [{_character(flip, k) for k in row} for row in system.rows]
                        assert all(len(c) == 1 for c in characters)
                        picked[key] = tuple(
                            row for row, c in zip(system.rows, characters) if c == {want}
                        )
                    assert slice_space(context, degree, kind).rows == picked[key], key
    assert {want for _, _, want, _, _ in picked} == {1, -1}


@pytest.mark.parametrize("case, params, n", REGIMES)
def test_orbit_rows_scaled_at_their_pivots_are_the_eliminated_basis(case, params, n):
    # every sign vector, both a0, in the full context and phi's, each kind
    # at degrees 0..5 (0..4 at four blocks): the canonical basis read off
    # the orbit rows is the reduced row-echelon basis an elimination gives
    slices = {}
    for signs in itertools.product((1, -1), repeat=n + 1):
        ctx = SymmetryContext.from_case(case, params, signs)
        for context in (ctx.full_context(), phi_context(ctx)):
            for degree in range(6 if n < 4 else 5):
                for kind in FUNCTION_KINDS + MAP_KINDS:
                    span = slice_space(context, degree, kind)
                    slices[id(span)] = span
    for span in slices.values():
        assert span.canonical == tuple(Echelon(span.rows).reduced_rows())


def test_a_hit_on_another_sign_class_builds_no_orbit_row(monkeypatch):
    # a miss of the kept systems builds E_d's basis once, for phi alone; a
    # hit, on another sign class of the linear part, builds no orbit row:
    # it filters the kept rows, and they are the naive oracle's
    memo = SystemMemo(SYSTEM_BUDGET)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
    full = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1)).full_context()
    other = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, -1, 1, 1)).full_context()
    degree, kind = 3, "reversible_equivariant"
    builds = []
    build = oracle._equivariant_basis
    monkeypatch.setattr(oracle, "_equivariant_basis", lambda *a: builds.append(a) or build(*a))
    slice_space(full, degree, kind)
    assert (memo.misses, memo.hits, len(builds)) == (1, 0, 1)
    rows = slice_space(other, degree, kind).rows
    assert (memo.misses, memo.hits, len(builds)) == (1, 1, 1)
    assert rows == slice_space_naive(other, degree, kind).rows


def _after_phi(last) -> GroupContext:
    ctx = SymmetryContext.from_case("non_resonant", (1,), (1, 1))
    return GroupContext((ctx.phi, last), ctx.linear_part)


def _flip_that_moves_with_the_first_element() -> GroupContext:
    """Three blocks of one frequency; A swaps z1 and z2, and B = D A for D
    the flip of z1, which the torus does not hold.  A does not commute
    with D, and a filter of A's rows by D's character would be wrong."""
    x = ((0, 1),), ((1, 1),)
    z3 = ((6, 1),), ((7, 1),)
    elements = (
        SignedElement((*x, ((4, 1),), ((5, 1),), ((2, 1),), ((3, 1),), *z3), 1),
        SignedElement((*x, ((4, -1),), ((5, -1),), ((2, 1),), ((3, 1),), *z3), -1),
    )
    return GroupContext(elements, LinearPart(3, ((1, -1, 0), (0, 1, -1))))


# the x1-x2 swap, and a conjugation of z2 alone
X_SWAP = SignedElement((((1, 1),), ((0, 1),), ((2, 1),), ((3, 1),)), 1)
Z2_CONJUGATION = SignedElement(
    (((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),), ((5, 1),), ((4, 1),)), 1
)


@pytest.mark.parametrize(
    "build,index",
    [
        *((lambda e=e: _after_phi(e), 1) for e in MONOMIAL_ELEMENTS),
        (_flip_that_moves_with_the_first_element, 0),
        *((lambda e=e: GroupContext((e,), LinearPart(1)), 0) for e in MONOMIAL_ELEMENTS),
        (lambda: GroupContext((X_SWAP,), LinearPart(1)), 0),
        (lambda: GroupContext((Z2_CONJUGATION,), LinearPart(2)), 0),
    ],
    ids=[
        "phi-swap", "phi-scaling", "flip-moved-by-a-swap", "swap", "scaling",
        "x-swap", "z2-conjugation",
    ],
)
def test_elements_outside_the_signed_permutations_are_refused(monkeypatch, build, index):
    # an x1-x2 swap, with z -> i conj(z) or alone, a scaling by 1/2 and
    # 1 + 2i, a swap of two blocks and a conjugation of one block of two
    # are no signed permutations that keep x1, x2 and every z_j, or
    # conjugate every z_j: a miss names the first such element of the key,
    # the swap of blocks too, though its flip is found
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
    context = build()
    for kind in FUNCTION_KINDS + MAP_KINDS:
        with pytest.raises(DimensionError, match=f"^element {index} .* slices no other$"):
            slice_space(context, 2, kind)
    assert oracle.KEPT_SYSTEMS.size == 0


# (x1, x2, z) -> (x1, x2, conj z): phi times a flip of x2 alone, which
# scales x1 and x2 apart
X2_FLIP = SignedElement((((0, 1),), ((1, 1),), ((3, 1),), ((2, 1),)), -1)


def test_two_elements_with_no_sign_flip_between_them_match_naive():
    # the last element is not the one before times a diagonal sign flip
    # that scales x1 and x2 alike: the slice keys both elements, and its
    # rows are the naive oracle's
    context = _after_phi(X2_FLIP)
    assert oracle._flip(context.elements) is None
    dims = []
    for kind in FUNCTION_KINDS + MAP_KINDS:
        for degree in (1, 2, 3):
            rows = slice_space(context, degree, kind).rows
            assert rows == slice_space_naive(context, degree, kind).rows, (kind, degree)
            dims.append(len(rows))
    assert sum(dims) > 0


def _kept_system(linear, keyed: tuple, degree: int, kind: str):
    """The `KeptSystem` of the shear and the keyed elements, from
    `KEPT_SYSTEMS` as `slice_space` reads it, and built on a miss."""
    return oracle.KEPT_SYSTEMS.get(
        (linear, keyed, degree, kind),
        lambda: oracle._kept_system(linear, keyed, degree, kind, DEFAULT_MONOMIAL_LIMIT),
    )[0]


def _kept_size(memo) -> int:
    """The sizes of the entries the memo keeps, each counted at least 1, summed."""
    return sum(max(size, 1) for _, size in memo._entries.values())


# holds the kept systems of any one golden regime at degrees 0..5, 1,274
# (component, monomial) pairs at most, and not those of three:
# res_n1n2_Cn (1,2,3), which comes after (1,3) and (2,3), 2,260 pairs with
# res_n1n2_C3 (1,2), builds again what (1,2) built
SWEEP_BUDGET = 1400


def test_kept_systems_give_the_rows_of_a_cleared_memo(monkeypatch):
    # every sign vector of each golden regime, a0 = +1 and -1, every kind
    # at degrees 0..5, in order on one warm memo: each slice has the rows
    # it has on a cleared memo, and the memo never holds more pairs than
    # its budget
    memo = SystemMemo(SWEEP_BUDGET)
    keys = set()
    for case, params, n in REGIMES:
        for signs in itertools.product((1, -1), repeat=n + 1):
            full = SymmetryContext.from_case(case, params, signs).full_context()
            for kind in FUNCTION_KINDS + MAP_KINDS:
                for degree in range(6):
                    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
                    expected = slice_space(full, degree, kind).rows
                    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
                    assert slice_space(full, degree, kind).rows == expected, (signs, degree)
                    assert memo.size <= memo.budget
                    keys.add((full.continuous, full.elements[:-1], degree, kind))
    assert memo.hits > 0
    assert memo.misses > len(keys)  # the budget dropped systems that came back


def test_a_hit_raises_the_resource_limit_of_a_miss(monkeypatch):
    full = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1)).full_context()
    degree, kind = 5, "reversible_equivariant"
    memo = SystemMemo(SYSTEM_BUDGET)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
    count = _kept_system(full.continuous, full.elements[:-1], degree, kind).pairs
    size = memo.size
    assert slice_space(full, degree, kind, count).rows
    with pytest.raises(ResourceLimit) as hit:
        slice_space(full, degree, kind, count - 1)
    assert (memo.misses, memo.hits) == (1, 2)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
    with pytest.raises(ResourceLimit) as miss:
        slice_space(full, degree, kind, count - 1)
    assert str(hit.value) == str(miss.value)
    assert re.search(f"more than {count - 1} admissible", str(miss.value))
    # a system over the budget is built for its slice and not kept
    small = SystemMemo(size - 1)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", small)
    for _ in range(2):
        assert slice_space(full, degree, kind).rows
    assert (small.misses, small.hits, small.size) == (2, 0, 0)


def test_threads_share_the_kept_systems(monkeypatch):
    # three threads slice every sign class of one linear part on one memo,
    # whose budget holds 140 of the 338 pairs of their systems, so it
    # drops and builds them again while the threads run: each thread gets
    # the slices it gets alone, and the memo stays within its budget
    contexts = [
        SymmetryContext.from_case("res_n1n2_C3", (1, 2), signs).full_context()
        for signs in itertools.product((1, -1), repeat=4)
    ]
    jobs = [(full, d, kind) for full in contexts for kind in MAP_KINDS for d in range(5)]
    alone = [slice_space(*job).rows for job in jobs]
    nthreads = 3
    start = threading.Barrier(nthreads, timeout=30)

    def sweep(results):
        start.wait()
        results.append([slice_space(*job).rows for job in jobs])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to give a race its chance
    try:
        for _ in range(3):
            memo = SystemMemo(140)
            monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
            results = []
            threads = [threading.Thread(target=sweep, args=(results,)) for _ in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [alone] * nthreads
            assert memo.hits + memo.misses == nthreads * len(jobs)
            assert 0 < memo.size == _kept_size(memo) <= memo.budget
    finally:
        sys.setswitchinterval(interval)


def test_budget_counts_admissible_monomials():
    # 251,940 raw (component, monomial) pairs at degree 12, far fewer of them
    # torus-admissible: the orbit slice fits the default bound, the naive
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
        tuple(reversed([scale(g, 3) for g in gs.module_generators])),
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
        tuple(reversed([scale(g, 3) for g in gs.module_generators])),
        ctx,
    )
    a = module_slice(gs, 5)
    b = module_slice(reordered, 5)
    assert a.dimension > 0
    assert a.basis == b.basis


class _LevelLog(list):
    """A table's levels that record the index of each level appended."""

    def __init__(self, levels):
        super().__init__(levels)
        self.appended = []

    def append(self, level):
        self.appended.append(len(self))
        super().append(level)


def _logged_tables(monkeypatch) -> list:
    """Each `ProductTable` built from here on, with its levels logged."""
    tables = []

    class LoggedTable(symmetry_ops.ProductTable):
        def __init__(self, basis, nvars):
            super().__init__(basis, nvars)
            self.levels = _LevelLog(self.levels)
            tables.append(self)

    monkeypatch.setattr(symmetry_ops, "ProductTable", LoggedTable)
    return tables


SWEEP = range(1, 13)


def _sweep_context():
    return SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1))


def _hand_built(gs, ctx):
    return GeneratorSet(gs.ring_basis, gs.module_generators, ctx)


def _kept_module_slice(gs, degree: int):
    """The (slice, products) that `KEPT_SYSTEMS` keeps for the set's module
    at the degree, or None."""
    return oracle.KEPT_SYSTEMS._entries.get(
        ("module", gs.ring_basis, gs.module_generators, degree)
    )


def test_a_module_slice_sweep_builds_one_table_and_each_level_once(monkeypatch):
    ctx = _sweep_context()
    gs = pipeline(ctx)
    alone = [module_slice(_hand_built(gs, ctx), d) for d in SWEEP]
    tables = _logged_tables(monkeypatch)
    top = SWEEP[-1] - min(g.degree() for g in gs.module_generators)
    # on a cleared memo, a hand-built set and a set that pipeline returns
    # each build one table, and the kept table gives the slices that a
    # table per call gives
    for owner in (_hand_built(gs, ctx), gs):
        monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
        assert [module_slice(owner, d) for d in SWEEP] == alone
        table = tables[-1]
        assert table.levels.appended == list(range(1, top + 1))
        assert owner.products is table
    assert len(tables) == 2
    # another pipeline call, and a set built by hand from equal generators,
    # read the slices that the memo keeps: they build no table
    for again in (pipeline(ctx), _hand_built(gs, ctx)):
        assert again is not gs
        assert all(module_slice(again, d) is module_slice(gs, d) for d in SWEEP)
    assert len(tables) == 2


def _sweep_in_threads(monkeypatch, kept: bool):
    """Three threads sweep SWEEP, ten times, on a hand-built set that they
    share or, if `kept`, each on a pipeline call of its own that reads the
    one rung `transported` keeps; each gets the single-thread slices, every
    table built in a sweep appends each level once, and the memo keeps one
    slice of each degree, whose products it counts once."""
    ctx = _sweep_context()
    gs = pipeline(ctx)
    alone = [module_slice(_hand_built(gs, ctx), d) for d in SWEEP]
    tables = _logged_tables(monkeypatch)
    nthreads = 3
    start = threading.Barrier(nthreads, timeout=30)

    def sweep(shared, results):
        start.wait()
        genset = pipeline(ctx) if kept else shared
        if genset.ring_basis is shared.ring_basis:
            results.append([module_slice(genset, d) for d in SWEEP])

    def each_level_once(swept):
        for table in swept:
            appended = table.levels.appended
            assert appended == list(range(1, len(appended) + 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to give a race its chance
    try:
        # a race is a matter of timing, so each round sweeps on a cleared
        # memo a fresh set, or a fresh rung, made before the threads start
        # so they share it
        for _ in range(10):
            transported.cache_clear()
            memo = SystemMemo(SYSTEM_BUDGET)
            monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
            shared = pipeline(ctx) if kept else _hand_built(gs, ctx)
            # the tables of a transport step's prunes gain elements and
            # build levels again; a sweep's tables start here
            made = len(tables)
            results = []
            threads = [
                threading.Thread(target=sweep, args=(shared, results)) for _ in range(nthreads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [alone] * nthreads
            assert all(_kept_module_slice(shared, d) for d in SWEEP)
            assert len(memo._entries) == len(SWEEP)
            assert memo.size == _kept_size(memo)
            each_level_once(tables[made:])
    finally:
        sys.setswitchinterval(interval)
    if not kept:
        # a hand-built set runs no transport: every table is a sweep's
        each_level_once(tables)


def test_threads_sharing_a_generator_set_get_the_single_thread_slices(monkeypatch):
    _sweep_in_threads(monkeypatch, kept=False)


def test_threads_sharing_a_kept_rung_get_the_single_thread_slices(monkeypatch):
    _sweep_in_threads(monkeypatch, kept=True)


def test_a_kept_module_slice_raises_the_resource_limit_of_a_miss(monkeypatch):
    # a hit counts the products of the kept slice against the caller's
    # limit, with the message of a miss; a slice past the limit is not kept
    ctx = _sweep_context()
    degree = 9
    gs = pipeline(ctx)
    span = module_slice(gs, degree)
    kept, count = _kept_module_slice(gs, degree)
    assert kept is span
    assert module_slice(gs, degree, count) is span
    with pytest.raises(ResourceLimit) as hit:
        module_slice(gs, degree, count - 1)
    memo = SystemMemo(SYSTEM_BUDGET)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
    fresh = _hand_built(gs, ctx)
    with pytest.raises(ResourceLimit) as miss:
        module_slice(fresh, degree, count - 1)
    assert str(hit.value) == str(miss.value)
    assert str(miss.value) == f"module slice at degree {degree} exceeded {count - 1} products"
    assert _kept_module_slice(fresh, degree) is None and memo.size == 0
    assert module_slice(fresh, degree, count) == span
    assert _kept_module_slice(fresh, degree)[1] == count


def test_the_memo_keeps_module_slices_within_its_budget(monkeypatch):
    # the memo keeps the module slices of a sweep while their products stay
    # within its budget, dropping the least recently used first; a slice
    # it dropped is made again, equal, on the next call
    ctx = _sweep_context()
    gs = pipeline(ctx)
    alone = [module_slice(gs, d) for d in SWEEP]
    counts = [_kept_module_slice(gs, d)[1] for d in SWEEP]
    assert all(counts)
    budget = sum(counts[-6:])
    memo = SystemMemo(budget)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
    capped = _hand_built(gs, ctx)
    assert [module_slice(capped, d) for d in SWEEP] == alone
    assert [key[-1] for key in memo._entries] == list(SWEEP[-6:])
    assert memo.size == _kept_size(memo) == budget
    assert module_slice(capped, SWEEP[0]) == alone[0]
    assert (memo.misses, memo.hits) == (len(SWEEP) + 1, 0)
    assert [key[-1] for key in memo._entries][-1] == SWEEP[0]
    assert memo.size == _kept_size(memo) <= budget


def test_a_module_slice_holds_its_canonical_basis():
    # a module slice's rows are the reduced row-echelon basis of its span,
    # which `spans_equal` compares; were they some other basis of it, the
    # containment path would still find the spans equal
    gs = pipeline(_sweep_context())
    for degree in SWEEP:
        span = module_slice(gs, degree)
        assert span.canonical == span.rows == tuple(Echelon(span.rows).reduced_rows())
    span = module_slice(gs, 6)
    assert span.dimension > 1
    other = tuple({k: 2 * v for k, v in row.items()} for row in span.rows[::-1])
    for pretended in (True, False):
        unreduced = DegreeSlice(6, span.kind, other, span.nvars, reduced=pretended)
        assert spans_equal(span, unreduced) == SpanComparison(True)
        assert spans_equal(unreduced, span) == SpanComparison(True)


def test_spans_equal_examples(nonres1):
    x1 = Polynomial.variable(4, 0)
    x2 = Polynomial.variable(4, 1)
    a = slice_of(1, "invariant", 4, (x1,))
    assert spans_equal(a, a).equal
    b = slice_of(1, "invariant", 4, (scale(x1, 2),))
    assert spans_equal(a, b).equal
    c = slice_of(1, "invariant", 4, (x2,))
    cmp = spans_equal(a, c)
    assert not cmp.equal
    assert cmp.witness == x2
    with pytest.raises(DimensionError):
        spans_equal(a, slice_of(2, "invariant", 4, ()))


def test_spans_equal_same_dimension_different_spans():
    # equal row counts decide nothing: each side has an element the other lacks
    x1, x2, z1, zb1 = (Polynomial.variable(4, i) for i in range(4))
    a = slice_of(1, "invariant", 4, (x1, x2))
    b = slice_of(1, "invariant", 4, (add(x1, x2), add(z1, zb1)))
    assert a.dimension == b.dimension == 2
    cmp = spans_equal(a, b)
    assert not cmp.equal
    assert (cmp.witness, cmp.missing_from) == (add(z1, zb1), "a")
    cmp = spans_equal(b, a)
    assert not cmp.equal
    assert cmp.missing_from == "a"
    assert cmp.witness in (x1, x2)


def test_spans_equal_with_dependent_rows():
    # a dependent row adds nothing: a padded side still equals the plain one,
    # and a side whose count matches only through a dependent row is smaller
    x1, x2 = Polynomial.variable(4, 0), Polynomial.variable(4, 1)
    plain = slice_of(1, "invariant", 4, (x1, x2))
    padded = slice_of(1, "invariant", 4, (x1, x2, add(x1, x2), scale(x1, 3)))
    assert spans_equal(plain, padded).equal
    assert spans_equal(padded, plain).equal
    doubled = slice_of(1, "invariant", 4, (x1, scale(x1, 2)))
    assert doubled.dimension == plain.dimension
    cmp = spans_equal(plain, doubled)
    assert (cmp.equal, cmp.witness, cmp.missing_from) == (False, x2, "b")
    cmp = spans_equal(doubled, plain)
    assert (cmp.equal, cmp.witness, cmp.missing_from) == (False, x2, "a")
    zero = slice_of(1, "invariant", 4, (Polynomial.zero(4),))
    assert spans_equal(zero, slice_of(1, "invariant", 4, ())).equal


def _containment_reference(a, b):
    """The comparison on bases: two-way containment, the first witness found."""
    span_a = Echelon(vectorize(e) for e in a.basis)
    for elem in b.basis:
        if not span_a.contains(vectorize(elem)):
            return False, elem, "a"
    span_b = Echelon(vectorize(e) for e in b.basis)
    for elem in a.basis:
        if not span_b.contains(vectorize(elem)):
            return False, elem, "b"
    return True, None, ""


# degree-2 maps on one block built from few monomials with small
# coefficients, so that equal, nested and dependent spans are all common;
# each is scaled by a drawn factor, so rows carry Fraction entries, and a
# map whose coefficients all vanish is a zero row
_MONOMIALS = ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1))


def _map(coeffs, factor) -> PolyMap:
    x1 = Polynomial(4, {m: c for m, c in zip(_MONOMIALS, coeffs[:4]) if c})
    z1 = Polynomial(4, {m: c for m, c in zip(_MONOMIALS, coeffs[4:]) if c})
    return scale(PolyMap((add(x1, conj(x1)), Polynomial.zero(4)), (z1,)), factor)


_MAPS = st.lists(
    st.builds(
        _map,
        st.lists(st.integers(-1, 1), min_size=8, max_size=8),
        st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3))),
    ),
    max_size=4,
)


@settings(max_examples=120)
@given(
    _MAPS,
    _MAPS,
    st.sampled_from(["drawn", "superset", "subset", "recombined", "padded"]),
)
def test_spans_equal_matches_containment_on_bases(left, right, mode):
    # the canonical bases decide as containment on the bases did, on random
    # slices with dependent, zero and Fraction rows and empty ones, and a
    # failure names the same witness; "recombined" spans what left spans,
    # and "padded" adds to left a zero row and a combination of its rows
    if mode == "superset":
        right = right + left
    elif mode == "subset":
        right = left[1:]
    elif mode == "recombined":
        right = [add(u, v) for u, v in zip(left, left[1:])] + left[-1:]
    elif mode == "padded":
        total = reduce(add, left, PolyMap.zero(1))
        right = [*left, PolyMap.zero(1), scale(total, Fraction(1, 3)), *right[:1]]
    a = slice_of(2, "equivariant", 4, left)
    b = slice_of(2, "equivariant", 4, right)
    cmp = spans_equal(a, b)
    assert (cmp.equal, cmp.witness, cmp.missing_from) == _containment_reference(a, b)
    assert a.canonical == tuple(Echelon(vectorize(e) for e in a.basis).reduced_rows())


def test_an_element_on_other_coordinates_is_refused(nonres1):
    # phi of two blocks in a context of the linear part of one block
    other = phi_element(2)
    for elements in ((other,), (other, nonres1.phi), (nonres1.phi, other)):
        context = GroupContext(elements, nonres1.linear_part)
        with pytest.raises(DimensionError, match="every element must act on 4 coordinates"):
            slice_space(context, 2, "invariant")


def test_resource_limit(nonres1):
    with pytest.raises(ResourceLimit):
        slice_space(nonres1.full_context(), 6, "reversible_equivariant", limit=10)
    gs = pipeline(nonres1)
    with pytest.raises(ResourceLimit):
        module_slice(gs, 6, limit=2)


def test_limit_counts_each_admissible_pair_once():
    # the bound is met exactly by the (component, admissible monomial) pairs
    # of a map slice, x1 and x2 counted apiece though they share one walk
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1))
    full = ctx.full_context()
    degree = 6
    pairs = len({
        (c, mono)
        for g in _naive_admissible(ctx.linear_part, degree, False)
        for c, poly in enumerate((*g.x_components, *g.z_components))
        for mono in poly.monomials()
    })
    weight_zero = len({
        mono for p in _naive_admissible(ctx.linear_part, degree, True) for mono in p.monomials()
    })
    slice_space(full, degree, "reversible_equivariant", limit=pairs)
    message = f"more than {pairs - 1} admissible (component, monomial) pairs"
    with pytest.raises(ResourceLimit, match=re.escape(message)):
        slice_space(full, degree, "reversible_equivariant", limit=pairs - 1)
    with pytest.raises(ResourceLimit):
        slice_space(full, degree, "reversible_equivariant", limit=2 * weight_zero - 1)
    slice_space(full, degree, "invariant", limit=weight_zero)
    with pytest.raises(ResourceLimit):
        slice_space(full, degree, "invariant", limit=weight_zero - 1)


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
        nvars = ctx.linear_part.nvars
        products = tuple(polynomial_from_terms(nvars, p) for p in gs.products[degree] if p)
        ours = slice_of(degree, "invariant", ctx.linear_part.nvars, products)
        oracle = slice_space(ctx.full_context(), degree, "invariant")
        assert spans_equal(ours, oracle).equal, degree
