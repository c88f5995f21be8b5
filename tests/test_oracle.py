"""Brute-force degree slices, module slices, and span comparisons."""

import functools
import itertools
import math
import re
import sys
import threading
from fractions import Fraction
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birevnf.continuous import LinearPart, SymmetryContext, phi_element
from birevnf.errors import DimensionError, ResourceLimit
from birevnf.group import GroupContext, SignedElement, membership
from birevnf.linalg import Echelon, polymap_from_vector, polynomial_from_vector, vectorize
from birevnf import oracle
from birevnf.oracle import (
    DEFAULT_MONOMIAL_LIMIT,
    FUNCTION_KINDS,
    DegreeSlice,
    MAP_KINDS,
    SYSTEM_BUDGET,
    SpanComparison,
    SystemMemo,
    _group_rows,
    _parameters,
    _shear_rows,
    _solution_row,
    module_slice,
    slice_space,
    spans_equal,
)
from birevnf.poly import PolyMap, Polynomial, Substitution
from birevnf import symmetry_ops
from birevnf.symmetry_ops import GeneratorSet, pipeline, ring_products, transported

from conftest import MONOMIAL_ELEMENTS, slice_of
from references import phi_context
from test_continuous import DRAWN_LINEAR_PARTS, _drawn_linear_part
from test_golden_gensets import REGIMES
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


def _naive_admissible(linear, degree: int, functions: bool) -> list:
    if functions:
        naive = _function_parameters(linear.nvars, degree)
    else:
        naive = _map_parameters(linear.nblocks, degree)
    return [p for p in naive if _torus_admissible(linear, p)]


def _per_parameter(rows: dict, degree: int, count: int) -> list[dict]:
    """The system transposed: per parameter, tag -> its `vectorize` vector."""
    out: list[dict] = [{} for _ in range(count)]
    for (tag, comp, mono, part), row in rows.items():
        for k, value in row.items():
            out[k].setdefault(tag, {})[(comp, (degree, mono), part)] = value
    return out


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


@pytest.mark.parametrize(
    "case,params,signs",
    [
        (case, params, ((1,) * (n + 1), (-1,) * (n + 1)))
        for case, params, n in COMPILED_ROW_REGIMES
    ],
)
def test_compiled_rows_match_the_polymap_path(case, params, signs):
    # on every golden regime, its first and last sign class: the compiled
    # parameters are the torus-admissible naive parameters in the same
    # order, counted in (component, monomial) pairs, and each one's shear
    # and group rows, with every parameter live, the system transposed,
    # are the PolyMap path's rows
    linear = SymmetryContext.from_case(case, params, signs[0]).linear_part
    for degree in range(5):
        for functions in (True, False):
            naive = _naive_admissible(linear, degree, functions)
            kinds = FUNCTION_KINDS if functions else MAP_KINDS
            constraints = _function_constraints if functions else _map_constraints
            records, pairs = _parameters(linear, degree, kinds[0], DEFAULT_MONOMIAL_LIMIT)
            assert pairs == len({(c, mono) for rec in records for c, mono, _ in rec})
            vectors = [_solution_row(records, degree, {k: 1}) for k in range(len(records))]
            compiled = [
                polynomial_from_vector(vec, linear.nvars)
                if functions
                else polymap_from_vector(vec, linear.nblocks)
                for vec in vectors
            ]
            assert compiled == naive, (degree, functions)
            shear = _shear_rows(records)
            for sign_vector in signs:
                full = SymmetryContext.from_case(case, params, sign_vector).full_context()
                for kind in kinds:
                    group = _group_rows(full.elements, kind, records, range(len(records)))
                    rows = {**shear, **group}
                    images = _per_parameter(rows, degree, len(records))
                    for param, image in zip(naive, images):
                        expected = {t: v for t, v in constraints(full, kind, param) if v}
                        assert image == expected, (sign_vector, degree, kind, param)


@functools.lru_cache(maxsize=64)
def _records_and_shear(linear, degree: int, kind: str) -> tuple:
    records, _ = _parameters(linear, degree, kind, DEFAULT_MONOMIAL_LIMIT)
    return records, _shear_rows(records)


def _whole_system_rows(context: GroupContext, degree: int, kind: str) -> tuple:
    """The slice rows of the canonical nullspace of the shear's rows and
    every element's, over every parameter, with nothing forced or kept."""
    records, shear = _records_and_shear(context.continuous, degree, kind)
    every = range(len(records))
    system = {**shear, **_group_rows(context.elements, kind, records, every)}
    solutions = Echelon(row for row in system.values() if row).nullspace(every)
    return tuple(_solution_row(records, degree, sol) for sol in solutions)


def _sign_map_contexts(ctx: SymmetryContext) -> list:
    """The contexts of phi alone and of (phi, psi) under each sign map."""
    return [phi_context(ctx)] + [
        GroupContext((replace(ctx.phi, sign=s), replace(ctx.psi, sign=t)), ctx.linear_part)
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
def test_forcing_keeps_the_nullspace_of_the_whole_system(case, params, signs):
    # slice_space drops the parameters the shear forces to zero, and of a
    # (phi, psi) context it solves phi's rows alone and keeps the solutions
    # of the character psi's condition asks for; on every sign vector with
    # this a0, phi alone and phi and psi under every sign map, its rows are
    # still the canonical nullspace of every row over every parameter.
    # phi is the same in every sign class, and a sign only enters the
    # signed kinds, so equal systems are solved once; the given sign vector
    # goes up to degree 6
    solved = {}
    for rest in itertools.product((1, -1), repeat=len(signs) - 1):
        ctx = SymmetryContext.from_case(case, params, signs[:1] + rest)
        for context in _sign_map_contexts(ctx):
            for degree in range(7 if ctx.signs == signs else 6):
                for kind in FUNCTION_KINDS + MAP_KINDS:
                    signed = kind in ("anti_invariant", "reversible_equivariant")
                    key = tuple((el.rows, signed and el.sign) for el in context.elements)
                    if (key, degree, kind) not in solved:
                        solved[key, degree, kind] = _whole_system_rows(context, degree, kind)
                    assert slice_space(context, degree, kind).rows == solved[key, degree, kind], (
                        rest, context.elements, degree, kind)


@settings(max_examples=40)
@given(DRAWN_LINEAR_PARTS, st.data())
def test_drawn_linear_parts_slice_as_their_whole_systems(drawn, data):
    # two sign classes of a drawn linear part, the second a hit on the
    # kept systems of the first, each kind at a drawn degree
    linear = _drawn_linear_part(drawn)
    degree = data.draw(st.integers(0, 4))
    for _ in range(2):
        signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * (linear.n + 1)))
        full = SymmetryContext.build(linear, signs).full_context()
        for kind in FUNCTION_KINDS + MAP_KINDS:
            assert slice_space(full, degree, kind).rows == _whole_system_rows(full, degree, kind)


def _reference_flip(elements) -> tuple | None:
    """The diagonal of D = B A, from the product of the last two actions,
    when it is a sign flip that scales x1 and x2 alike and commutes with
    every element but B; else None."""
    if len(elements) < 2:
        return None
    rows = (elements[-1].action * elements[-2].action).rows
    flip = tuple(d.re if j == i and d in (1, -1) else 0 for i, ((j, d),) in enumerate(rows))
    commutes = all(
        flip[j] == flip[i] for el in elements[:-1] for i, ((j, _),) in enumerate(el.rows)
    )
    return flip if 0 not in flip and flip[0] == flip[1] and commutes else None


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


def test_group_rows_substitute_only_what_the_shear_leaves(monkeypatch):
    # one image per distinct monomial of the parameters that no one-entry
    # shear row forces to zero, fewer than over every parameter; a miss of
    # the kept systems substitutes for phi alone, and a hit, on another
    # sign class of the linear part, builds no group row and inserts no
    # Echelon row: it filters the kept solutions
    memo = SystemMemo(SYSTEM_BUDGET)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
    full = SymmetryContext.from_case("res_n1n2_C3", (3, 5), (1, 1, -1, 1)).full_context()
    other = SymmetryContext.from_case("res_n1n2_C3", (3, 5), (1, -1, 1, 1)).full_context()
    degree, kind = 17, "reversible_equivariant"
    records, _ = _parameters(full.continuous, degree, kind, DEFAULT_MONOMIAL_LIMIT)
    forced = {k for row in _shear_rows(records).values() if len(row) == 1 for k in row}

    def monomials(keep):
        return len({mono for k, rec in enumerate(records) if keep(k) for _, mono, _ in rec})

    calls = {"add_image": [], "_group_rows": [], "insert": []}

    def counted(owner, name):
        original = getattr(owner, name)

        def call(*args):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, call)

    counted(Substitution, "add_image")
    counted(oracle, "_group_rows")
    counted(Echelon, "insert")
    live = monomials(lambda k: k not in forced)
    slice_space(full, degree, kind)
    assert (memo.misses, memo.hits) == (1, 0)
    assert len(calls["add_image"]) == live < monomials(lambda k: True)
    assert len(calls["_group_rows"]) == 1 and calls["insert"]
    for log in calls.values():
        log.clear()
    rows = slice_space(other, degree, kind).rows
    assert (memo.misses, memo.hits) == (1, 1)
    assert calls == {"add_image": [], "_group_rows": [], "insert": []}
    assert rows == _whole_system_rows(other, degree, kind)


def _after_phi(last) -> GroupContext:
    ctx = SymmetryContext.from_case("non_resonant", (1,), (1, 1))
    return GroupContext((ctx.phi, last), ctx.linear_part)


def _flip_that_moves_with_the_first_element() -> GroupContext:
    """Three blocks of one frequency; A swaps z1 and z2, and B = D A for D
    the flip of z1, which the torus does not hold.  A does not commute
    with D, and a filter of A's solutions by D's character is wrong."""
    x = ((0, 1),), ((1, 1),)
    z3 = ((6, 1),), ((7, 1),)
    elements = (
        SignedElement((*x, ((4, 1),), ((5, 1),), ((2, 1),), ((3, 1),), *z3), 1),
        SignedElement((*x, ((4, -1),), ((5, -1),), ((2, 1),), ((3, 1),), *z3), -1),
    )
    return GroupContext(elements, LinearPart(3, ((1, -1, 0), (0, 1, -1))))


# (x1, x2, z) -> (x1, x2, conj z): phi times a flip of x2 alone, which
# scales x1 and x2 apart
X2_FLIP = SignedElement((((0, 1),), ((1, 1),), ((3, 1),), ((2, 1),)), -1)


@pytest.mark.parametrize(
    "build",
    [*(lambda e=e: _after_phi(e) for e in (*MONOMIAL_ELEMENTS, X2_FLIP)),
     _flip_that_moves_with_the_first_element],
    ids=["phi-swap", "phi-scaling", "phi-x2-flip", "flip-moved-by-a-swap"],
)
def test_two_elements_with_no_sign_flip_between_them_match_naive(build):
    # the last element is not the one before times a diagonal sign flip
    # that scales x1 and x2 alike and commutes with it: the slice solves
    # both elements' rows
    context = build()
    assert oracle._flip(context.elements) is None
    for kind in FUNCTION_KINDS + MAP_KINDS:
        for degree in (1, 2, 3):
            a = slice_space(context, degree, kind)
            b = slice_space_naive(context, degree, kind)
            assert a.dimension == b.dimension, (kind, degree)
            assert spans_equal(a, b).equal, (kind, degree)


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


def _kept_system(linear, solved: tuple, degree: int, kind: str):
    """The `KeptSystem` of the shear's and the solved elements' rows, from
    `KEPT_SYSTEMS` as `slice_space` reads it, and solved on a miss."""
    return oracle.KEPT_SYSTEMS.get(
        (linear, solved, degree, kind),
        lambda: oracle._kept_system(linear, solved, degree, kind, DEFAULT_MONOMIAL_LIMIT),
    )[0]


def _kept_size(memo) -> int:
    """The sizes of the entries the memo keeps, summed."""
    return sum(size for _, size in memo._entries.values())


# holds the kept systems of any one golden regime at degrees 0..5, 1,846
# unknowns at most, and not those of three: res_n1n2_Cn (1,2,3), which
# comes after (1,3) and (2,3), builds again what res_n1n2_C3 (1,2) built
SWEEP_BUDGET = 2000


def test_kept_systems_give_the_rows_of_a_cleared_memo(monkeypatch):
    # every sign vector of each golden regime, a0 = +1 and -1, every kind
    # at degrees 0..5, in order on one warm memo: each slice has the rows
    # it has on a cleared memo, and the memo never holds more unknowns
    # than its budget
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
    unknowns = memo.size
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
    small = SystemMemo(unknowns - 1)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", small)
    for _ in range(2):
        assert slice_space(full, degree, kind).rows
    assert (small.misses, small.hits, small.size) == (2, 0, 0)


def test_threads_share_the_kept_systems(monkeypatch):
    # three threads slice every sign class of one linear part on one memo,
    # whose budget holds 200 of the 496 unknowns of their systems, so it
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
            memo = SystemMemo(200)
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
    b = slice_of(1, "invariant", 4, (x1.scale(2),))
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
    b = slice_of(1, "invariant", 4, (x1 + x2, z1 + zb1))
    assert a.dimension == b.dimension == 2
    cmp = spans_equal(a, b)
    assert not cmp.equal
    assert (cmp.witness, cmp.missing_from) == (z1 + zb1, "a")
    cmp = spans_equal(b, a)
    assert not cmp.equal
    assert cmp.missing_from == "a"
    assert cmp.witness in (x1, x2)


def test_spans_equal_with_dependent_rows():
    # a dependent row adds nothing: a padded side still equals the plain one,
    # and a side whose count matches only through a dependent row is smaller
    x1, x2 = Polynomial.variable(4, 0), Polynomial.variable(4, 1)
    plain = slice_of(1, "invariant", 4, (x1, x2))
    padded = slice_of(1, "invariant", 4, (x1, x2, x1 + x2, x1.scale(3)))
    assert spans_equal(plain, padded).equal
    assert spans_equal(padded, plain).equal
    doubled = slice_of(1, "invariant", 4, (x1, x1.scale(2)))
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


def _map(coeffs, scale) -> PolyMap:
    x1 = Polynomial(4, {m: c for m, c in zip(_MONOMIALS, coeffs[:4]) if c})
    z1 = Polynomial(4, {m: c for m, c in zip(_MONOMIALS, coeffs[4:]) if c})
    return PolyMap((x1 + x1.conj(), Polynomial.zero(4)), (z1,)).scale(scale)


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
        right = [u + v for u, v in zip(left, left[1:])] + left[-1:]
    elif mode == "padded":
        total = sum(left, PolyMap.zero(1))
        right = [*left, PolyMap.zero(1), total.scale(Fraction(1, 3)), *right[:1]]
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
        products = tuple(p for p in ring_products(gs.ring_basis, degree) if p)
        ours = slice_of(degree, "invariant", ctx.linear_part.nvars, products)
        oracle = slice_space(ctx.full_context(), degree, "invariant")
        assert spans_equal(ours, oracle).equal, degree
