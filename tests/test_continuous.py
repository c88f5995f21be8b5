"""Closure-group structure, infinitesimal checks, involutions, catalogs."""

import math
from collections import Counter
from itertools import product

import pytest

from hypothesis import given, reject, settings
from hypothesis import strategies as st

import birevnf.continuous as continuous
import birevnf.group as group
import birevnf.poly as poly
from birevnf.continuous import (
    LinearPart,
    SymmetryContext,
    case_blocks,
    catalog,
    check_involution_pair,
    classify_type,
    closure_data,
    enumerate_involution_pairs,
    fix_dimension,
    linear_part_for_case,
    orbit_representative,
    phi_element,
    psi_element,
    psi_rows,
)
from birevnf.errors import ConditionViolated, DimensionError, ResourceLimit, UnsupportedCase
from birevnf.group import GroupContext, SignedElement, anticommute_check
from birevnf.linalg import Echelon, vectorize
from birevnf.oracle import FUNCTION_KINDS, MAP_KINDS, module_slice, slice_space
from birevnf.poly import (
    I,
    ONE,
    GaussianRational,
    LinearAction,
    PolyMap,
    Polynomial,
    compose,
    z_index,
    zbar_index,
)
from birevnf.symmetry_ops import pipeline, ring_products

from conftest import (
    dense,
    dense_of_triples,
    dense_rref,
    identity_matrix,
    mat_mul,
    sparse,
    triple_rows,
)
from reference_oracle import mul_invariant, reference_infinitesimal_ok
from references import sigma_tilde_psi_context
from test_golden_gensets import CATALOG_SETS, REGIMES


def catalog_faults(linear, basis, gens) -> list:
    """The catalog elements that fail the audit of the closure group's data.

    A Hilbert-basis element must be real-valued, of positive degree and
    invariant; a generator equivariant (`LinearPart.infinitesimal_ok`).
    """
    faults = [
        p
        for p in basis
        if not (p.is_real_valued() and p.degree() >= 1 and linear.infinitesimal_ok(p, "invariant"))
    ]
    return faults + [g for g in gens if not linear.infinitesimal_ok(g, "equivariant")]


def test_structure_single_resonance_on_three_blocks():
    linear = LinearPart(3, ((-2, 1, 0),))  # n1 w2 - n2 w1 = 0 with (n1,n2)=(1,2)
    assert linear.torus_weight_rows() == ((1, 2, 0), (0, 0, 1))


def test_structure_double_resonance_on_four_blocks():
    linear = linear_part_for_case("res_double_C4", (1, 2, 3, 4))
    assert linear.torus_weight_rows() == ((1, 2, 0, 0), (0, 0, 3, 4))


def test_structure_chained_relations():
    # w2 = 2 w1 and 2 w3 = 3 w2 leave the single direction (1, 2, 3) plus
    # the free fourth frequency
    linear = LinearPart(4, ((-2, 1, 0, 0), (0, -3, 2, 0)))
    assert linear.torus_weight_rows() == ((1, 2, 3, 0), (0, 0, 0, 1))


def test_structure_without_relations_is_full_torus():
    linear = LinearPart(3)
    assert linear.torus_weight_rows() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_torus_weight_rows_are_solved_once():
    linear = LinearPart(4, ((1, 2, 3, 0),))
    rows = linear.torus_weight_rows()
    assert linear.torus_weight_rows() is rows
    assert len(rows) == 3
    for row in rows:
        assert sum(c * w for c, w in zip((1, 2, 3, 0), row)) == 0


def test_linear_parts_with_one_weight_lattice_are_equal():
    # relations that span one rational space give one key, and each linear
    # part keeps its own spelling
    spellings = [((1, -2),), ((-1, 2),), ((2, -4),)]
    linear = [LinearPart(2, rels) for rels in spellings]
    assert linear[0] == linear[1] == linear[2]
    assert len({hash(lp) for lp in linear}) == 1
    assert [lp.resonance_relations for lp in linear] == spellings
    assert linear[0] != LinearPart(2, ((1, -3),))
    assert linear[0] != LinearPart(2)
    assert LinearPart(1) != LinearPart(2, ((1, -1),))


def test_linear_part_rejects_forced_zero_frequency():
    with pytest.raises(DimensionError):
        LinearPart(2, ((1, 0),))
    with pytest.raises(DimensionError):
        LinearPart(2, ((1, 1), (1, -1)))
    with pytest.raises(DimensionError):
        LinearPart(2, ((0, 0),))


def test_infinitesimal_examples():
    linear = LinearPart(2)
    nvars = 6
    v1 = Polynomial.variable(nvars, 0)
    assert linear.infinitesimal_ok(v1, "invariant")
    h0 = closure_data(linear).equivariant_generators[0]  # (x1, x2, 0, 0)
    assert linear.infinitesimal_ok(h0, "equivariant")
    x2 = Polynomial.variable(nvars, 1)
    assert not linear.infinitesimal_ok(x2, "invariant")


def test_weight_defect_filters_cross_terms():
    linear = LinearPart(2, ((-2, 1),))  # weights (1, 2)
    nvars = 6
    mono = [0] * nvars
    mono[z_index(1)] = 1
    mono[zbar_index(2)] = 1
    cross = Polynomial.monomial(nvars, tuple(mono))  # z1 conj(z2): defect 1 - 2
    assert not linear.infinitesimal_ok(cross, "invariant")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_involution_pairs_counts_and_properties(n):
    linear = LinearPart(n)
    pairs = enumerate_involution_pairs(linear)
    assert len(pairs) == 2 ** n
    assert len({p.signs for p in pairs}) == 2 ** n
    all_ones = tuple([1] * (n + 1))
    by_signs = {p.signs: p for p in pairs}
    assert all_ones in by_signs
    assert dense(by_signs[all_ones].phi) == dense(by_signs[all_ones].psi)
    for pair in pairs:
        assert anticommute_check(pair.phi, linear)
        assert anticommute_check(pair.psi, linear)
        assert mat_mul(dense(pair.phi), dense(pair.psi)) == mat_mul(
            dense(pair.psi), dense(pair.phi)
        )
        assert fix_dimension(pair.phi) == n + 1
        assert fix_dimension(pair.psi) == n + 1


@pytest.mark.parametrize(
    "case,params,nblocks", REGIMES, ids=[f"{c} {p}" for c, p, _ in REGIMES]
)
def test_both_involutions_negate_every_infinitesimal_generator(case, params, nblocks):
    # gamma M gamma = -M: conjugation keeps the generator lattice of S
    linear = linear_part_for_case(case, params)
    generators = [dense(m) for m in linear.infinitesimal_generators()]
    negated = [tuple(tuple(-x for x in row) for row in m) for m in generators]
    phi = phi_element(nblocks)
    for signs in product((1, -1), repeat=nblocks + 1):
        psi = psi_element(signs)
        check_involution_pair(linear, phi, psi)
        for gamma in (phi, psi):
            for m, minus_m in zip(generators, negated):
                assert mat_mul(mat_mul(dense(gamma), m), dense(gamma)) == minus_m


TABLE2_ROWS = [
    # (a0, a1, a2, (n1, n2), expected)
    (1, 1, 1, (1, 2), "A"),
    (1, 1, 1, (2, 1), "A"),
    (1, -1, -1, (2, 2), "A"),   # n1 + n2 even  (catalog would reduce; type table only)
    (1, -1, -1, (1, 3), "A"),
    (1, -1, -1, (1, 2), "B"),   # n1 + n2 odd
    (1, 1, -1, (2, 3), "A"),    # n1 even
    (1, 1, -1, (1, 2), "B"),    # n1 odd
    (1, -1, 1, (3, 2), "A"),    # n2 even
    (1, -1, 1, (2, 1), "B"),    # n2 odd
    (-1, 1, 1, (1, 2), "C"),
    (-1, -1, -1, (1, 3), "C"),
    (-1, -1, -1, (1, 2), "D"),
    (-1, 1, -1, (2, 3), "C"),
    (-1, 1, -1, (1, 2), "D"),
    (-1, -1, 1, (3, 2), "C"),
    (-1, -1, 1, (2, 1), "D"),
]


@pytest.mark.parametrize("a0,a1,a2,exponents,expected", TABLE2_ROWS)
def test_classification_table(a0, a1, a2, exponents, expected):
    assert classify_type((a0, a1, a2), exponents) == expected


def test_classify_rejects_bad_input():
    with pytest.raises(DimensionError):
        classify_type((1, 1), (1, 2))
    with pytest.raises(DimensionError):
        classify_type((1, 1, 2), (1, 2))
    with pytest.raises(DimensionError):
        classify_type((1, 1, 1), (0, 2))


@pytest.mark.parametrize("exponents", [(), (1,), (1, 2, 3)])
def test_classify_rejects_exponents_that_are_not_a_pair(exponents):
    with pytest.raises(DimensionError, match=rf"resonance pair \(n1, n2\), got {len(exponents)}"):
        classify_type((1, 1, 1), exponents)


def test_catalog_non_resonant_contents():
    n = 3
    data = catalog("non_resonant", (n,))
    assert len(data.hilbert_basis) == n + 1
    assert len(data.equivariant_generators) == 2 * n + 2
    assert data.hilbert_basis[0] == Polynomial.variable(2 * n + 2, 0)
    degrees = [p.degree() for p in data.hilbert_basis]
    assert degrees == [1] + [2] * n


def test_catalog_single_resonance_contents():
    data = catalog("res_n1n2_C3", (1, 2))
    assert len(data.hilbert_basis) == 6
    assert len(data.equivariant_generators) == 12
    degrees = [p.degree() for p in data.hilbert_basis]
    assert degrees == [1, 2, 2, 3, 3, 2]


def test_catalog_double_resonance_contents():
    data = catalog("res_double_C4", (1, 2, 1, 2))
    assert len(data.hilbert_basis) == 9
    assert len(data.equivariant_generators) == 18


def test_catalog_cn_matches_c3_at_three_blocks():
    a = catalog("res_n1n2_C3", (1, 2))
    b = catalog("res_n1n2_Cn", (1, 2, 3))
    assert a.hilbert_basis == b.hilbert_basis
    assert a.equivariant_generators == b.equivariant_generators


def test_catalog_rejections():
    with pytest.raises(UnsupportedCase):
        catalog("unknown_case", (1,))
    with pytest.raises(UnsupportedCase):
        catalog("res_n1n2_C3", (2, 4))  # common factor
    with pytest.raises(UnsupportedCase):
        catalog("res_n1n2_C3", (1, 1))  # equal frequencies not shipped
    with pytest.raises(UnsupportedCase):
        catalog("res_double_C4", (1, 2, 1, 1))
    with pytest.raises(UnsupportedCase):
        catalog("res_n1n2_Cn", (1, 2, 2))  # needs n >= 3
    with pytest.raises(UnsupportedCase):
        catalog("non_resonant", (0,))
    with pytest.raises(UnsupportedCase):
        catalog("res_n1n2_C3", (1,))


def test_catalog_elements_are_members_for_the_full_group():
    linear = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, 1, 1)).linear_part
    assert catalog_faults(linear, *closure_data(linear)) == []


def test_symmetry_context_builders():
    ctx = SymmetryContext.from_case("non_resonant", (2,), (1, -1, 1))
    assert ctx.phi.sign == -1 and ctx.psi.sign == -1
    tilde = sigma_tilde_psi_context(ctx)
    assert tilde.elements[0].sign == 1
    assert tilde.elements[1].sign == -1
    with pytest.raises(DimensionError):
        SymmetryContext.from_case("non_resonant", (2,), (1, 1))
    with pytest.raises(DimensionError):
        SymmetryContext.from_case("non_resonant", (2,), (1, 1, 2))


def test_sgroup_data_rejects_non_invariant_basis():
    linear = LinearPart(1)
    x2 = Polynomial.variable(linear.nvars, 1)  # x2 is not invariant
    assert not linear.infinitesimal_ok(x2, "invariant")
    assert catalog_faults(linear, (x2,), ()) == [x2]


def test_sgroup_data_always_checks_the_shear():
    # x2 and the map (0, x2) have torus weight 0 but are not shear-invariant;
    # a catalog holding x2 would let the pipeline certify x2^2 as a ring element
    linear = LinearPart(1)
    basis, gens = closure_data(linear)
    x2 = Polynomial.variable(linear.nvars, 1)
    zero = Polynomial.zero(linear.nvars)
    sheared = PolyMap((zero, x2), (zero,))
    assert not linear.infinitesimal_ok(sheared, "equivariant")
    assert catalog_faults(linear, basis + (x2,), gens) == [x2]
    assert catalog_faults(linear, basis, gens + (sheared,)) == [sheared]


@pytest.mark.parametrize("case,params", [("res_n1n2_C3", (1, 2)), ("res_double_C4", (1, 2, 1, 3))])
def test_weight_test_agrees_with_the_reference_on_another_lattice(case, params):
    # a resonant catalog against the non-resonant linear part on as many
    # blocks: every element meets the shear, and the resonant ones fail the
    # weight test alone; in res_double_C4 those of the second relation
    # fail only past the first weight row
    resonant = linear_part_for_case(case, params)
    plain = LinearPart(resonant.n)
    basis, gens = closure_data(resonant)
    checks = [(p, "invariant") for p in basis] + [(g, "equivariant") for g in gens]
    verdicts = set()
    for obj, kind in checks:
        assert resonant.infinitesimal_ok(obj, kind)
        got = plain.infinitesimal_ok(obj, kind)
        assert got == reference_infinitesimal_ok(plain, obj, kind), (kind, str(obj))
        verdicts.add(got)
    assert verdicts == {False, True}


def test_infinitesimal_check_refuses_another_coordinate_count():
    linear = LinearPart(2)
    for obj, kind in [
        (Polynomial.variable(4, 2), "invariant"),
        (Polynomial.variable(8, 2), "invariant"),
        (PolyMap.zero(1), "equivariant"),
        (PolyMap.zero(3), "equivariant"),
    ]:
        with pytest.raises(DimensionError):
            linear.infinitesimal_ok(obj, kind)


AUDITED = sorted({(case, params) for case, params, _ in REGIMES} | set(CATALOG_SETS))


@pytest.mark.parametrize(
    "case,params", AUDITED, ids=[f"{c} {','.join(map(str, p))}" for c, p in AUDITED]
)
def test_golden_catalogs_pass_the_audit(case, params):
    linear = linear_part_for_case(case, params)
    assert catalog_faults(linear, *closure_data(linear)) == []


# (n, resonance relations) on 1-4 blocks, at most two relations
DRAWN_LINEAR_PARTS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=2),
    )
)


def _drawn_linear_part(drawn) -> LinearPart:
    """The linear part of a `DRAWN_LINEAR_PARTS` draw; rejected when the
    relations force a frequency to zero."""
    n, relations = drawn
    try:
        return LinearPart(n, tuple(relations))
    except DimensionError:
        reject()


@settings(max_examples=150)
@given(DRAWN_LINEAR_PARTS)
def test_derived_catalogs_pass_the_audit(drawn):
    linear = _drawn_linear_part(drawn)
    assert catalog_faults(linear, *closure_data(linear)) == []


NOT_INTEGERS = [
    (lambda: LinearPart(2, ((1.5, -1),)), DimensionError),
    (lambda: LinearPart(True), DimensionError),
    (lambda: LinearPart(2.0), DimensionError),
    (lambda: linear_part_for_case("non_resonant", (2.7,)), UnsupportedCase),
    (lambda: case_blocks("res_n1n2_C3", (1, True)), UnsupportedCase),
    (lambda: SymmetryContext.from_case("non_resonant", (2.7,), (1, 1, 1)), UnsupportedCase),
    (lambda: psi_rows((1.9, -1.5)), DimensionError),
    (lambda: SymmetryContext.build(LinearPart(1), (1.9, -1.5)), DimensionError),
    (lambda: SymmetryContext.build(LinearPart(1), (True, -1)), DimensionError),
    (lambda: classify_type((1.0, 1, 1), (1, 2)), DimensionError),
    (lambda: classify_type((1, 1, -1), (1.5, 2)), DimensionError),
]


@pytest.mark.parametrize(
    "build,error",
    NOT_INTEGERS,
    ids=[
        "relation 1.5", "n True", "n 2.0", "case parameter 2.7", "case parameter True",
        "from_case 2.7", "psi signs", "build signs", "build sign True",
        "classify sign 1.0", "classify exponent 1.5",
    ],
)
def test_non_integer_input_is_rejected_not_truncated(build, error):
    with pytest.raises(error, match="integer"):
        build()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_checks_the_all_ones_pair_then_each_single_flip(n, monkeypatch):
    linear = LinearPart(n)
    checked = []
    real = continuous.check_involution_pair
    monkeypatch.setattr(
        continuous,
        "check_involution_pair",
        lambda l, phi, psi: checked.append((l, phi, psi)) or real(l, phi, psi),
    )
    pairs = enumerate_involution_pairs(linear)
    monkeypatch.undo()
    by_signs = {pair.signs: pair for pair in pairs}
    ones = (1,) * (n + 1)
    flips = [ones] + [ones[:k] + (-1,) + ones[k + 1 :] for k in range(1, n + 1)]
    # n + 1 checks, in that order, on the listed elements themselves
    assert len(checked) == n + 1
    for (l, phi, psi), signs in zip(checked, flips):
        assert l is linear and phi is by_signs[signs].phi and psi is by_signs[signs].psi
    for pair in pairs:
        check_involution_pair(linear, pair.phi, pair.psi)


def _sign_flip(signs) -> LinearAction:
    """D(a) = diag(a0, a0, a1, a1, ..., an, an), as a checked action."""
    rows = tuple(((i, signs[i // 2]),) for i in range(2 * len(signs)))
    return LinearAction(rows, len(rows))


@pytest.mark.parametrize("n", range(1, 7))
def test_every_psi_is_a_sign_flip_of_phi(n):
    # psi(a) = D(a) phi for every sign vector, a0 = -1 included: the
    # identity the enumeration's n + 1 pair checks rest on
    phi = phi_element(n).action
    for signs in product((1, -1), repeat=n + 1):
        assert triple_rows(psi_element(signs)) == compose(_sign_flip(signs), phi)


def test_enumeration_refuses_a_single_flip_that_fails_the_pair_check(monkeypatch):
    # patched, the flip of a2 alone sends x2 to +x2, so it commutes with the shear
    n, bad = 3, (1, 1, -1, 1)
    real = continuous.psi_rows

    def broken(signs):
        rows = real(signs)
        if tuple(signs) == bad:
            return (rows[0], ((1, 1),), *rows[2:])
        return rows

    monkeypatch.setattr(continuous, "psi_rows", broken)
    with pytest.raises(DimensionError) as expected:
        check_involution_pair(LinearPart(n), phi_element(n), psi_element(bad))
    with pytest.raises(DimensionError) as raised:
        enumerate_involution_pairs(LinearPart(n))
    assert str(raised.value) == str(expected.value) == "psi does not anti-commute with L"


@pytest.mark.parametrize(
    "case,params", [(case, params) for case, params, _ in REGIMES],
    ids=[f"{case} {','.join(map(str, params))}" for case, params, _ in REGIMES],
)
def test_every_action_the_engine_builds_is_monomial(case, params, monkeypatch):
    # the shear and torus generators, phi and psi of every sign class, and
    # every product the pair check composes (unchecked, so compared with
    # the dense product): at most one nonzero entry in each row
    products = []

    def recording(a, b):
        products.append((a, b, compose(a, b)))
        return products[-1][2]

    with monkeypatch.context() as patched:
        for module in (group, continuous):
            patched.setattr(module, "compose", recording)
        linear = linear_part_for_case(case, params)
        actions = list(linear.infinitesimal_generators())
        for ctx in enumerate_involution_pairs(linear):
            check_involution_pair(linear, ctx.phi, ctx.psi)
            actions += [ctx.phi.action, ctx.psi.action]
    assert products
    for a, b, rows in products:
        assert dense_of_triples(rows) == mat_mul(dense(a), dense(b))
        assert all(len(row) <= 1 and all(re or im for _, re, im in row) for row in rows)
    for action in actions:
        assert all(len(row) <= 1 and all(c for _, c in row) for row in action.rows)


def test_the_listing_builds_no_entry_per_product(monkeypatch):
    # the listing and the fixed-point dimension of every element it lists
    # build no more GaussianRationals at n = 8 than at n = 6: an element's
    # entries are the shared 1 and -1, and the checks compose rows on the
    # entries' int parts; every check still runs, n + 1 pair checks and one
    # conjugation check for phi and for each of the 2^n psi
    built = {}
    for n in (6, 8):
        linear = LinearPart(n)
        calls = Counter()
        entry, pair, compatible = (
            GaussianRational.__init__, continuous.check_involution_pair,
            poly.check_conjugation_compatible,
        )
        with monkeypatch.context() as patched:
            patched.setattr(
                GaussianRational, "__init__",
                lambda *args: calls.update(["entry"]) or entry(*args),
            )
            patched.setattr(
                continuous, "check_involution_pair",
                lambda *args: calls.update(["pair"]) or pair(*args),
            )
            patched.setattr(
                poly, "check_conjugation_compatible",
                lambda *args: calls.update(["compatible"]) or compatible(*args),
            )
            pairs = enumerate_involution_pairs(linear)
            dimensions = {(fix_dimension(ctx.phi), fix_dimension(ctx.psi)) for ctx in pairs}
        assert dimensions == {(n + 1, n + 1)}
        assert (calls["pair"], calls["compatible"]) == (n + 1, 1 + 2**n)
        built[n] = calls["entry"]
    assert built[8] <= built[6]


# -- the derived catalog against the oracle ----------------------------------

# (linear part, top degree): every shipped regime through degree 5, and two
# linear parts no named case covers through degree 7
COMPLETENESS = [
    (linear_part_for_case("non_resonant", (3,)), 5),
    (linear_part_for_case("res_n1n2_C3", (1, 2)), 5),
    (linear_part_for_case("res_n1n2_C3", (2, 3)), 5),
    (linear_part_for_case("res_n1n2_Cn", (1, 2, 4)), 5),
    (linear_part_for_case("res_double_C4", (1, 2, 1, 3)), 5),
    (LinearPart(4, ((-2, 1, 0, 0), (0, -3, 2, 0))), 7),
    (LinearPart(4, ((1, 2, 3, 0),)), 7),
]


@pytest.mark.parametrize(
    "linear,top", COMPLETENESS, ids=[str(lin.resonance_relations) for lin, _ in COMPLETENESS]
)
def test_derived_catalog_spans_the_oracle_slices(linear, top):
    # the audit makes every product invariant and every multiple equivariant,
    # so equal ranks mean the catalog generates each slice
    data = closure_data(linear)
    assert catalog_faults(linear, *data) == []
    continuous_only = GroupContext((), linear)
    products = {d: ring_products(data.hilbert_basis, d) for d in range(top + 1)}
    for d in range(top + 1):
        ring = Echelon(vectorize(p) for p in products[d])
        module = Echelon(
            vectorize(mul_invariant(g, p))
            for g in data.equivariant_generators
            for p in products.get(d - g.degree(), ())
        )
        assert len(ring.pivots) == slice_space(continuous_only, d, "invariant").dimension
        assert len(module.pivots) == slice_space(continuous_only, d, "equivariant").dimension


def test_chained_relations_have_five_cross_invariants():
    data = closure_data(LinearPart(4, ((-2, 1, 0, 0), (0, -3, 2, 0))))
    # x1, four |z_k|^2, and the real and imaginary part of five cross terms
    assert len(data.hilbert_basis) == 1 + 4 + 2 * 5


def _generator_profile(ctx):
    gs = pipeline(ctx)
    return (
        Counter(p.degree() for p in gs.ring_basis),
        Counter(g.degree() for g in gs.module_generators),
        [module_slice(gs, d).dimension for d in range(2, 6)],
    )


@pytest.mark.parametrize("signs", [(1, 1, -1, 1, -1), (-1, -1, 1, 1, 1)])
def test_moving_the_resonant_pair_to_other_blocks_changes_no_count(signs):
    # res_n1n2_Cn (1, 2, 4) resonates blocks 1 and 2; the same relation on
    # blocks 3 and 4, with the signs permuted to match, is the same problem
    a0, a1, a2, a3, a4 = signs
    moved = LinearPart(4, ((0, 0, -2, 1),))
    here = SymmetryContext.from_case("res_n1n2_Cn", (1, 2, 4), signs)
    there = SymmetryContext.build(moved, (a0, a3, a4, a1, a2))
    assert _generator_profile(here) == _generator_profile(there)
    for kind in FUNCTION_KINDS + MAP_KINDS:
        for d in range(5):
            assert (
                slice_space(here.full_context(), d, kind).dimension
                == slice_space(there.full_context(), d, kind).dimension
            ), (kind, d)


def _listing_is_built_contexts(linear) -> bool:
    """Whether the listing equals `SymmetryContext.build` on each class with
    a0 = +1, in product order."""
    signs = product((1,), *[(1, -1)] * linear.n)
    return enumerate_involution_pairs(linear) == tuple(
        SymmetryContext.build(linear, s) for s in signs
    )


def test_enumeration_returns_the_checked_contexts():
    for case, params, _ in REGIMES:
        assert _listing_is_built_contexts(linear_part_for_case(case, params)), (case, params)


@settings(max_examples=100)
@given(DRAWN_LINEAR_PARTS)
def test_enumeration_returns_the_checked_contexts_of_drawn_linear_parts(drawn):
    assert _listing_is_built_contexts(_drawn_linear_part(drawn))


def test_enumeration_past_the_bound_builds_no_element(monkeypatch):
    built = []
    for name in ("phi_element", "psi_element"):
        monkeypatch.setattr(continuous, name, lambda *args: built.append(args))
    n = continuous.MAX_SIGN_CLASSES.bit_length()  # 2^n is twice the bound
    with pytest.raises(ResourceLimit, match=rf"2\^{n} sign classes, more than 4096"):
        enumerate_involution_pairs(LinearPart(n))
    assert built == []
    # every golden regime stays under it
    assert all(2 ** blocks <= continuous.MAX_SIGN_CLASSES for _, _, blocks in REGIMES)


def _nullity_of_shift(element) -> int:
    """dim ker(A - I) over the Gaussian rationals, from the dense matrix."""
    shifted = [
        [x - ONE if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(dense(element))
    ]
    return element.size - dense_rref(shifted, element.size)


def test_fix_dimension_is_the_nullity_of_a_minus_the_identity():
    # every psi on three blocks, the identity, and a reflection of the x-plane
    # that swaps z1 with i conj(z1)
    identity = SignedElement(sparse(identity_matrix(6)), 1)
    reflection = SignedElement(
        sparse([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, I], [0, 0, -I, 0]]), -1
    )
    psis = [ctx.psi for ctx in enumerate_involution_pairs(LinearPart(3))]
    for gamma in (*psis, identity, reflection):
        assert gamma.is_involution()
        assert fix_dimension(gamma) == _nullity_of_shift(gamma)
    assert fix_dimension(identity) == 6
    # the order-4 rotation of z1, and a swap of x1 and x2 that stretches
    # one of them, which squares to no involution
    rotation = SignedElement(
        sparse([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, I, 0], [0, 0, 0, -I]]), 1, "rotation"
    )
    with pytest.raises(ConditionViolated, match="rotation must be an involution"):
        fix_dimension(rotation)
    with pytest.raises(ConditionViolated, match="must be an involution"):
        fix_dimension(
            SignedElement(sparse([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), -1)
        )


def _outcome(call):
    """The class and message that call raises, or None if it returns."""
    try:
        call()
    except Exception as error:  # the class and message are compared
        return type(error), str(error)
    return None


# (bad triple, a valid triple of the same case), the valid one kept between
# the two calls on the bad one; True, 2.0 and 1.0 hash as the ints 1 and 2
BAD_TRIPLES = {
    "unknown case": (("no_such_case", (2,), (1, 1, 1)), ("non_resonant", (2,), (1, 1, 1))),
    "param True": (("non_resonant", (True,), (1, 1)), ("non_resonant", (1,), (1, 1))),
    "param 2.0": (("non_resonant", (2.0,), (1, 1, 1)), ("non_resonant", (2,), (1, 1, 1))),
    "param '1'": (("non_resonant", ("1",), (1, 1)), ("non_resonant", (1,), (1, 1))),
    "param count": (("res_n1n2_C3", (1,), (1, 1, 1, 1)), ("res_n1n2_C3", (1, 2), (1, 1, 1, 1))),
    "params (2,4)": (("res_n1n2_C3", (2, 4), (1, 1, 1, 1)), ("res_n1n2_C3", (1, 2), (1, 1, 1, 1))),
    "params (1,1)": (("res_n1n2_C3", (1, 1), (1, 1, 1, 1)), ("res_n1n2_C3", (1, 2), (1, 1, 1, 1))),
    "sign 0": (("non_resonant", (2,), (1, 0, 1)), ("non_resonant", (2,), (1, 1, 1))),
    "sign True": (("non_resonant", (2,), (True, 1, 1)), ("non_resonant", (2,), (1, 1, 1))),
    "sign 1.0": (("non_resonant", (2,), (1.0, 1, 1)), ("non_resonant", (2,), (1, 1, 1))),
    "sign count": (("non_resonant", (2,), (1, 1)), ("non_resonant", (2,), (1, 1, 1))),
}


@pytest.mark.parametrize("bad,valid", BAD_TRIPLES.values(), ids=BAD_TRIPLES.keys())
def test_a_kept_context_raises_what_the_unkept_build_raises(bad, valid):
    case, params, signs = bad
    want = _outcome(lambda: SymmetryContext.build(linear_part_for_case(case, params), signs))
    assert want is not None
    assert _outcome(lambda: SymmetryContext.from_case(*bad)) == want
    kept = SymmetryContext.from_case(*valid)
    assert _outcome(lambda: SymmetryContext.from_case(*bad)) == want
    # the error is not kept, and the valid context still is
    assert continuous._case_context.cache_info().currsize == 1
    assert SymmetryContext.from_case(*valid) is kept


def test_list_inputs_give_the_context_of_tuples():
    ctx = SymmetryContext.from_case("res_n1n2_C3", [1, 2], [1, 1, -1, 1])
    assert ctx.signs == (1, 1, -1, 1)
    assert ctx == SymmetryContext.build(linear_part_for_case("res_n1n2_C3", (1, 2)), (1, 1, -1, 1))
    assert SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1)) is ctx


def test_a_kept_context_is_checked_once(monkeypatch):
    checks = Counter()
    anticommute, compatible = continuous.anticommute_check, poly.check_conjugation_compatible
    monkeypatch.setattr(
        continuous,
        "anticommute_check",
        lambda *args: checks.update(["anticommute"]) or anticommute(*args),
    )
    monkeypatch.setattr(
        poly,
        "check_conjugation_compatible",
        lambda *args: checks.update(["compatible"]) or compatible(*args),
    )
    first = SymmetryContext.from_case("res_double_C4", (1, 2, 1, 3), (1, -1, 1, 1, -1))
    assert checks["anticommute"] > 0 and checks["compatible"] > 0
    checks.clear()
    again = SymmetryContext.from_case("res_double_C4", [1, 2, 1, 3], [1, -1, 1, 1, -1])
    assert again is first and not checks


def test_kept_contexts_stay_within_the_bound():
    # every sign vector of two four-block cases and of non_resonant 2:
    # 32 + 32 + 8 = 72 distinct triples, more than the memo keeps
    triples = [
        (case, params, signs)
        for case, params, n in [
            ("res_double_C4", (1, 2, 1, 3), 4),
            ("res_double_C4", (1, 2, 1, 2), 4),
            ("non_resonant", (2,), 2),
        ]
        for signs in product((1, -1), repeat=n + 1)
    ]
    assert len(set(triples)) == 72 > continuous.CONTEXT_CACHE
    for triple in triples:
        SymmetryContext.from_case(*triple)
        assert continuous._case_context.cache_info().currsize <= continuous.CONTEXT_CACHE
    info = continuous._case_context.cache_info()
    assert (info.misses, info.hits, info.currsize) == (72, 0, continuous.CONTEXT_CACHE)


# -- one problem per orbit ----------------------------------------------------


def _relation_parities(linear) -> set:
    """The block degrees mod 2 of the catalog's Hilbert-basis monomials.

    A monomial z^a conj(z)^b of the catalog is torus-invariant, so a - b is
    in the saturated relation lattice Lambda, and these a - b generate it;
    a_j + b_j has the parity of a_j - b_j, so the set spans Lambda mod 2.
    """
    return {
        tuple((mono[z_index(j)] + mono[zbar_index(j)]) % 2 for j in range(1, linear.n + 1))
        for u in closure_data(linear).hilbert_basis
        for mono in u.monomials()
    }


def _characters(signs, parities) -> tuple:
    """a0, then prod_j a_j^{m_j} for each m of `_relation_parities`."""
    return (signs[0], *(
        math.prod(a for a, m in zip(signs[1:], parity) if m) for parity in sorted(parities)
    ))


@pytest.mark.parametrize("case,params,n", REGIMES)
def test_a_representative_is_the_first_vector_with_its_characters(case, params, n):
    # for both a0, in listing order: the representative keeps a0 and the
    # characters, no earlier vector has them, and it is its own
    # representative; for one resonance, the characters are the Type
    linear = linear_part_for_case(case, params)
    parities = _relation_parities(linear)
    for a0 in (1, -1):
        listing = list(product((a0,), *[(1, -1)] * n))
        for signs in listing:
            rep = orbit_representative(linear, signs)
            chars = _characters(signs, parities)
            assert rep == next(s for s in listing if _characters(s, parities) == chars)
            assert orbit_representative(linear, rep) == rep
            if case.startswith("res_n1n2"):
                assert classify_type(rep, params[:2]) == classify_type(signs, params[:2])


@settings(max_examples=100)
@given(DRAWN_LINEAR_PARTS)
def test_drawn_linear_parts_have_two_to_the_one_plus_r_orbits(drawn):
    # r independent relations give 2^(1+r) orbits, and a flip of the blocks
    # k leaves an orbit exactly when m.k is odd for some m in Lambda
    linear = _drawn_linear_part(drawn)
    n, r = linear.n, linear.n - len(linear.torus_weight_rows())
    vectors = list(product((1, -1), repeat=n + 1))
    reps = {signs: orbit_representative(linear, signs) for signs in vectors}
    assert len(set(reps.values())) == 2 ** (1 + r)
    parities = _relation_parities(linear)
    for flip in product((0, 1), repeat=n):
        odd = any(sum(m * k for m, k in zip(parity, flip)) % 2 for parity in parities)
        for signs in vectors:
            flipped = (signs[0], *(-a if k else a for a, k in zip(signs[1:], flip)))
            assert (reps[flipped] != reps[signs]) == odd, (signs, flip)


@settings(max_examples=50)
@given(DRAWN_LINEAR_PARTS)
def test_doubled_relations_give_the_same_representatives(drawn):
    # (2, -4) is 0 mod 2 but spans the lattice of (1, -2): the orbits are
    # read off the saturated lattice, not off the relations as written
    linear = _drawn_linear_part(drawn)
    doubled = LinearPart(linear.n, tuple(tuple(2 * c for c in rel) for rel in drawn[1]))
    for signs in product((1, -1), repeat=linear.n + 1):
        assert orbit_representative(doubled, signs) == orbit_representative(linear, signs)


def test_the_relations_one_minus_two_and_two_minus_four_give_one_orbit_map():
    # a1 is the one character: a2 is free, and a1 is kept
    for rel in ((1, -2), (2, -4)):
        linear = LinearPart(2, (rel,))
        assert [orbit_representative(linear, s) for s in product((1, -1), repeat=3)] == [
            (1, 1, 1), (1, 1, 1), (1, -1, 1), (1, -1, 1),
            (-1, 1, 1), (-1, 1, 1), (-1, -1, 1), (-1, -1, 1),
        ]


def test_the_representative_of_many_blocks_is_found_without_listing_them():
    # 2^40 sign vectors per a0: an enumeration of the orbit would not end
    free = LinearPart(40)
    ctx = SymmetryContext.build(free, (1,) + (-1, 1) * 20)
    assert ctx.orbit_psi == psi_element((1,) * 41)
    assert orbit_representative(free, (-1,) * 41) == (-1,) + (1,) * 40
    # 20 relations z_{2i-1} = 2 z_{2i}: the odd blocks' signs are the characters
    paired = LinearPart(
        40, tuple(tuple({2 * i: 1, 2 * i + 1: -2}.get(j, 0) for j in range(40)) for i in range(20))
    )
    assert orbit_representative(paired, (1,) + (-1,) * 40) == (1,) + (-1, 1) * 20
