"""Signed elements: sign maps, the involution-pair check, membership.

The closures here are the reference `conftest.close_group`, which the
engine's sign comparison is checked against.
"""

from functools import cache
from operator import itemgetter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import birevnf.group as group_module
from birevnf.continuous import (
    LinearPart,
    SymmetryContext,
    check_involution_pair,
    phi_element,
    phi_rows,
    psi_element,
)
from birevnf.errors import (
    ConditionViolated,
    DimensionError,
    EngineError,
    IncompatibleMatrix,
    SignInconsistency,
)
from birevnf.group import (
    GroupContext,
    SignedElement,
    _monomial_images,
    _pulls_back_to,
    anticommute_check,
    membership,
)
from birevnf.oracle import FUNCTION_KINDS
from birevnf.poly import (
    GaussianRational,
    I,
    PolyMap,
    Polynomial,
    compose,
    re_part,
    z_index,
    zbar_index,
)
from birevnf.symmetry_ops import transfer_T

from conftest import (
    MONOMIAL_ELEMENTS,
    close_group,
    dense,
    element_product,
    identity_matrix,
    make_rng,
    mat_mul,
    random_polymap,
    random_polynomial,
    sparse,
    triple_rows,
)
from reference_oracle import compose_linear, mul_invariant, reference_membership
from references import sigma_tilde_psi_context
from test_golden_gensets import REGIMES as GOLDEN_REGIMES, gensets


def scaling_on_block(n, j, factor):
    """Diagonal map z_j -> factor * z_j (conjugate on the paired slot)."""
    nvars = 2 * n + 2
    rows = [[GaussianRational(0)] * nvars for _ in range(nvars)]
    rows[0][0] = GaussianRational(1)
    rows[1][1] = GaussianRational(1)
    for k in range(1, n + 1):
        c = factor if k == j else GaussianRational(1)
        rows[z_index(k)][z_index(k)] = c
        rows[zbar_index(k)][zbar_index(k)] = c.conjugate()
    return tuple(map(tuple, rows))


def swap_blocks(n=2):
    nvars = 2 * n + 2
    rows = [[GaussianRational(0)] * nvars for _ in range(nvars)]
    rows[0][0] = GaussianRational(1)
    rows[1][1] = GaussianRational(1)
    rows[z_index(1)][z_index(2)] = GaussianRational(1)
    rows[zbar_index(1)][zbar_index(2)] = GaussianRational(1)
    rows[z_index(2)][z_index(1)] = GaussianRational(1)
    rows[zbar_index(2)][zbar_index(1)] = GaussianRational(1)
    return tuple(map(tuple, rows))


def test_closure_of_the_two_involutions_is_klein_four():
    phi = phi_element(2)
    psi = psi_element((-1, -1, -1))
    group = close_group([phi, psi])
    assert len(group) == 4
    assert sorted(group.values()) == [-1, -1, 1, 1]
    # every element is its own inverse: the Klein four-group
    for matrix in group:
        assert mat_mul(matrix, matrix) == identity_matrix(6)
    check_involution_pair(LinearPart(2), phi, psi)


def test_involution_is_decided_once(monkeypatch):
    phi = phi_element(2)
    rotation = SignedElement(sparse(scaling_on_block(2, 1, I)), 1)
    products = []
    monkeypatch.setattr(
        group_module, "compose", lambda a, b: products.append(1) or compose(a, b)
    )
    for _ in range(3):
        assert phi.is_involution()
        assert not rotation.is_involution()
    assert len(products) == 2


def test_closure_is_closed_and_sign_is_homomorphism():
    phi = phi_element(2)
    psi = psi_element((-1, 1, -1))
    signs = close_group([phi, psi])
    for a, sign_a in signs.items():
        for b, sign_b in signs.items():
            product = mat_mul(a, b)
            assert product in signs
            assert signs[product] == sign_a * sign_b


def test_closure_of_identity_alone():
    ident = SignedElement(sparse(identity_matrix(4)), 1)
    assert len(close_group([ident])) == 1


def test_closure_of_single_involution():
    phi = phi_element(1)
    assert close_group([phi]) == {dense(phi): -1, identity_matrix(4): 1}


def test_closure_sign_inconsistency():
    phi = phi_element(1)
    wrong = SignedElement(phi.rows, 1)
    with pytest.raises(SignInconsistency):
        close_group([phi, wrong])
    with pytest.raises(SignInconsistency):
        check_involution_pair(LinearPart(1), phi, wrong)


def rejected_in_either_slot(linear, element):
    """The pair check refuses `element` in the place of phi and of psi."""
    n = linear.n
    phi, psi = phi_element(n), psi_element((1,) * (n + 1))
    for pair in ((element, psi), (phi, element)):
        with pytest.raises(DimensionError, match="anti-commute"):
            check_involution_pair(linear, *pair)


def test_product_sigma_values():
    # sigma multiplies the factor signs; sigma_tilde makes phi a symmetry
    ctx = SymmetryContext.build(LinearPart(2), (-1, -1, -1))
    phi_psi = mat_mul(dense(ctx.phi), dense(ctx.psi))
    sigma = close_group(ctx.full_context().elements)
    assert sigma[phi_psi] == 1
    assert sigma[identity_matrix(6)] == 1
    sigma_tilde = close_group(sigma_tilde_psi_context(ctx).elements)
    assert sigma_tilde[dense(ctx.phi)] == 1
    assert sigma_tilde[phi_psi] == -1


def test_product_sigma_conjugation_must_stay_in_factor():
    # the block swap conjugates the order-4 rotation of block 1 to that of
    # block 2, outside the first factor; neither passes the pair check
    n = 2
    rot = SignedElement(sparse(scaling_on_block(n, 1, I)), -1)
    kappa = SignedElement(sparse(swap_blocks(n)), -1)
    conj = mat_mul(mat_mul(dense(kappa), dense(rot)), dense(kappa))
    assert conj not in close_group([rot])
    for element in (rot, kappa):
        rejected_in_either_slot(LinearPart(n), element)


def test_product_sigma_conjugation_must_preserve_signs():
    n = 2
    minus1 = SignedElement(sparse(scaling_on_block(n, 1, GaussianRational(-1))), -1, "u")
    minus2 = SignedElement(sparse(scaling_on_block(n, 2, GaussianRational(-1))), 1, "v")
    for element in (minus1, minus2):
        rejected_in_either_slot(LinearPart(n), element)


def test_semidirect_condition_on_infinitesimal_generators():
    linear = LinearPart(2)
    phi, psi = phi_element(2), psi_element((-1, 1, -1))
    check_involution_pair(linear, phi, psi)
    generators = linear.infinitesimal_generators()
    assert len(generators) == 3
    for gamma in (phi, psi):
        for m in generators:
            negated = tuple(tuple(-x for x in row) for row in dense(m))
            assert mat_mul(mat_mul(dense(gamma), dense(m)), dense(gamma)) == negated


def test_pair_check_rejects_each_failed_condition():
    n = 2
    linear = LinearPart(n)
    phi = phi_element(n)
    x_doubled = [[2 if i == j and i < 2 else int(i == j) for j in range(6)] for i in range(6)]
    # anti-commutes with L, but squares to x -> 4x
    not_involution = SignedElement(sparse(mat_mul(dense(phi), x_doubled)), -1)
    # an anti-commuting involution whose product with phi is the order-4 rotation
    not_commuting = SignedElement(sparse(mat_mul(dense(phi), scaling_on_block(n, 1, I))), -1)
    assert not_commuting.is_involution()
    with pytest.raises(ConditionViolated, match="involution"):
        check_involution_pair(linear, phi, not_involution)
    with pytest.raises(ConditionViolated, match="involution"):
        check_involution_pair(linear, not_involution, phi)
    with pytest.raises(ConditionViolated, match="commute"):
        check_involution_pair(linear, phi, not_commuting)
    # phi again, as a symmetry: the closure reaches it with both signs
    with pytest.raises(SignInconsistency):
        check_involution_pair(linear, phi, SignedElement(phi.rows, 1))
    with pytest.raises(DimensionError):
        check_involution_pair(LinearPart(3), phi, phi)


def reference_pair_verdict(linear, phi, psi):
    """The old tower check on dense matrices: None, or (error class, message).

    Each element anti-commutes with every infinitesimal generator and is an
    involution, the two commute, and the reference closure of the pair
    gives no matrix two signs.
    """
    generators = [dense(m) for m in linear.infinitesimal_generators()]
    try:
        for gamma in (phi, psi):
            for m in generators:
                negated = tuple(tuple(-x for x in row) for row in mat_mul(m, dense(gamma)))
                if mat_mul(dense(gamma), m) != negated:
                    raise DimensionError(f"{gamma.name} does not anti-commute with L")
            if mat_mul(dense(gamma), dense(gamma)) != identity_matrix(gamma.size):
                raise ConditionViolated(f"{gamma.name} must be an involution")
        if mat_mul(dense(phi), dense(psi)) != mat_mul(dense(psi), dense(phi)):
            raise ConditionViolated("the two involutions must commute")
        close_group([phi, psi])
    except EngineError as err:
        return type(err), str(err)
    return None


@cache
def tower_candidates(n):
    """The matrix of psi_element(signs) for every sign tuple on n blocks,
    then three matrices that fail a fact of one element or of the pair: the
    identity (commutes with L), phi doubled on the x-plane (no involution)
    and phi times the order-4 rotation of block 1 (an involution that does
    not commute with phi)."""
    nvars = 2 * n + 2
    x_doubled = [[2 if i == j and i < 2 else int(i == j) for j in range(nvars)] for i in range(nvars)]
    return (
        *(dense(psi_element(signs)) for signs in product((1, -1), repeat=n + 1)),
        identity_matrix(nvars),
        mat_mul(dense(phi_element(n)), x_doubled),
        mat_mul(dense(phi_element(n)), scaling_on_block(n, 1, I)),
    )


@st.composite
def candidate_pairs(draw):
    n = draw(st.integers(1, 3))

    def element(name):
        matrix = draw(st.sampled_from(tower_candidates(n)))
        return SignedElement(sparse(matrix), draw(st.sampled_from((1, -1))), name)

    return LinearPart(n), element("phi"), element("psi")


@settings(max_examples=150)
@given(candidate_pairs())
# psi is phi with the opposite sign, the one clash the sign comparison meets
@example((LinearPart(1), phi_element(1), SignedElement(phi_rows(1), 1, "psi")))
@example((LinearPart(2), phi_element(2), SignedElement(phi_rows(2), -1, "psi")))
def test_pair_check_agrees_with_the_reference_closure(pair):
    linear, phi, psi = pair
    expected = reference_pair_verdict(linear, phi, psi)
    try:
        check_involution_pair(linear, phi, psi)
        verdict = None
    except EngineError as err:
        verdict = type(err), str(err)
    assert verdict == expected


def x_z_swap(n=1):
    """Conjugation-compatible map exchanging the x-plane with the z1-plane.

    Its rows x1, x2, z1 and zb1 have two nonzero entries each: it is not monomial.
    """
    from fractions import Fraction

    nvars = 2 * n + 2
    half = GaussianRational(Fraction(1, 2))
    half_i = GaussianRational(0, Fraction(1, 2))
    rows = [[GaussianRational(0)] * nvars for _ in range(nvars)]
    rows[0][z_index(1)] = half
    rows[0][zbar_index(1)] = half
    rows[1][z_index(1)] = -half_i
    rows[1][zbar_index(1)] = half_i
    rows[z_index(1)][0] = GaussianRational(1)
    rows[z_index(1)][1] = I
    rows[zbar_index(1)][0] = GaussianRational(1)
    rows[zbar_index(1)][1] = -I
    for k in range(2, n + 1):
        rows[z_index(k)][z_index(k)] = GaussianRational(1)
        rows[zbar_index(k)][zbar_index(k)] = GaussianRational(1)
    return tuple(map(tuple, rows))


def test_semidirect_condition_violated_by_x_z_swap():
    # x1 -> (z1 + conj z1)/2 is no monomial map: refused before any pair check
    with pytest.raises(IncompatibleMatrix, match="row 0 has 2 nonzero entries"):
        SignedElement(sparse(x_z_swap(1)), -1)


def test_semidirect_condition_violated_by_resonant_block_swap():
    # swapping z1 and z2 maps the (1,2) weight direction outside the lattice
    linear = LinearPart(3, ((-2, 1, 0),))
    nvars = 8
    rows = [[GaussianRational(0)] * nvars for _ in range(nvars)]
    rows[0][0] = GaussianRational(1)
    rows[1][1] = GaussianRational(1)
    rows[z_index(1)][z_index(2)] = GaussianRational(1)
    rows[zbar_index(1)][zbar_index(2)] = GaussianRational(1)
    rows[z_index(2)][z_index(1)] = GaussianRational(1)
    rows[zbar_index(2)][zbar_index(1)] = GaussianRational(1)
    rows[z_index(3)][z_index(3)] = GaussianRational(1)
    rows[zbar_index(3)][zbar_index(3)] = GaussianRational(1)
    rejected_in_either_slot(linear, SignedElement(sparse(rows), -1))


def test_block_swap_normalizes_nonresonant_torus():
    # without a resonance the swap permutes the infinitesimal generators, so
    # it normalizes S; it commutes with L, so it is no reversing involution
    linear = LinearPart(2)
    kappa = SignedElement(sparse(swap_blocks(2)), -1)
    generators = linear.infinitesimal_generators()
    dense_generators = {dense(m) for m in generators}
    conjugates = {mat_mul(mat_mul(dense(kappa), m), dense(kappa)) for m in dense_generators}
    assert conjugates == dense_generators
    rejected_in_either_slot(linear, kappa)


def test_membership_examples():
    n = 1
    nvars = 4
    phi = phi_element(n)
    ctx = GroupContext((phi,))
    mono = [0] * nvars
    mono[z_index(1)] = 1
    mono[zbar_index(1)] = 1
    norm = Polynomial.monomial(nvars, tuple(mono))
    assert membership(norm, ctx, "invariant")
    x2 = Polynomial.variable(nvars, 1)
    assert membership(x2, ctx, "anti_invariant")
    assert not membership(x2, ctx, "invariant")
    zero = Polynomial.zero(nvars)
    h3 = PolyMap((zero, zero), (Polynomial.variable(nvars, z_index(1)).scale(I),))
    assert membership(h3, ctx, "reversible_equivariant")
    assert not membership(h3, ctx, "equivariant")
    h2 = PolyMap((zero, zero), (Polynomial.variable(nvars, z_index(1)),))
    assert membership(h2, ctx, "equivariant")
    assert not membership(h2, ctx, "reversible_equivariant")


def test_reversible_membership_is_conjugation_invariant():
    # membership(g) agrees with membership(sign * kappa . g . kappa) for every
    # group element, member or not
    phi = phi_element(2)
    psi = psi_element((-1, 1, -1))
    ctx = GroupContext((phi, psi))
    rng = make_rng(11)
    for k in range(8):
        g = random_polymap(rng, 2, max_degree=3)
        if k % 2 == 0:
            g = transfer_T(transfer_T(g, phi), psi)  # often a genuine member
        for el in (phi, psi):
            twisted = (
                compose_linear(g, el.action).apply_linear(el.action).scale(el.sign)
            )
            assert membership(g, ctx, "reversible_equivariant") == membership(
                twisted, ctx, "reversible_equivariant"
            )


MEMBERSHIP_KINDS = ("invariant", "anti_invariant", "equivariant", "reversible_equivariant")


def _perturbed_polynomial(p: Polynomial, rng) -> Polynomial:
    """p with one term dropped, one coefficient scaled, or one monomial moved
    (one exponent shifted to another variable, or raised when it is 0)."""
    terms = dict(p.terms)
    mono = rng.choice(sorted(terms))
    how = rng.randrange(3)
    if how == 0:
        del terms[mono]
    elif how == 1:
        terms[mono] = terms[mono] * rng.choice((2, -1, I))
    else:
        coeff = terms.pop(mono)
        moved = list(mono)
        a, b = rng.sample(range(len(mono)), 2)
        moved[b] += 1
        if moved[a]:
            moved[a] -= 1
        moved = tuple(moved)
        terms[moved] = terms.get(moved, GaussianRational(0)) + coeff
    return Polynomial(p.nvars, terms)


def _perturbed_map(g: PolyMap, rng) -> PolyMap:
    """g with one nonzero stored component perturbed (its real part for an x one)."""
    comps = [*g.x_components, *g.z_components]
    k = rng.choice([k for k, c in enumerate(comps) if c])
    changed = _perturbed_polynomial(comps[k], rng)
    comps[k] = re_part(changed) if k < 2 else changed
    return PolyMap(comps[:2], comps[2:])


def _identity_map(nblocks: int) -> PolyMap:
    nvars = 2 * nblocks + 2
    xs = [Polynomial.variable(nvars, i) for i in (0, 1)]
    return PolyMap(xs, [Polynomial.variable(nvars, z_index(j)) for j in range(1, nblocks + 1)])


def test_membership_agrees_with_the_reference_on_the_golden_regimes():
    # every sign class of every golden regime: a sample of its ring elements
    # and of its generators, the x1-components of those generators
    # (anti-invariant when a0 = 1), the identity map times a ring element
    # (equivariant), a perturbed copy of each, and zero; against the full
    # context, its finite part alone and each involution alone over the
    # linear part
    rng = make_rng(24)
    verdicts = {kind: set() for kind in MEMBERSHIP_KINDS}
    for case, params, n in GOLDEN_REGIMES:
        for signs, ctx, genset in gensets(case, params, n):
            ring = rng.sample(genset.ring_basis, min(3, len(genset.ring_basis)))
            gens = rng.sample(genset.module_generators, min(3, len(genset.module_generators)))
            polys = ring + [g.x_components[0] for g in gens if g.x_components[0]]
            maps = gens + [mul_invariant(_identity_map(n), p) for p in ring[:1]]
            polys += [_perturbed_polynomial(p, rng) for p in polys]
            maps += [_perturbed_map(g, rng) for g in maps]
            full = ctx.full_context()
            contexts = (
                full,
                GroupContext(full.elements),
                GroupContext((ctx.phi,), ctx.linear_part),
                GroupContext((ctx.psi,), ctx.linear_part),
            )
            for context, kind in product(contexts, MEMBERSHIP_KINDS):
                zero = (
                    Polynomial.zero(2 * n + 2) if kind in FUNCTION_KINDS else PolyMap.zero(n)
                )
                assert membership(zero, context, kind)
                assert reference_membership(zero, context, kind)
                for obj in polys if kind in FUNCTION_KINDS else maps:
                    got = membership(obj, context, kind)
                    assert got == reference_membership(obj, context, kind), (
                        case, params, signs, kind, str(obj)
                    )
                    verdicts[kind].add(got)
    assert verdicts == {kind: {False, True} for kind in MEMBERSHIP_KINDS}


@given(st.integers(0, 10_000))
def test_membership_agrees_with_the_reference_on_complex_entries(seed):
    # elements with entries i, 1/2 and 1 + 2i, so the image coefficients and
    # the conjugated targets are not signs
    rng = make_rng(seed)
    swap, scaling = MONOMIAL_ELEMENTS
    p = random_polynomial(rng, 1, max_degree=3)
    g = random_polymap(rng, 1, max_degree=3)
    polys = [p, p + p.substitute_linear(swap.action), Polynomial.zero(4)]
    maps = [g, transfer_T(g, swap), _identity_map(1), PolyMap.zero(1)]
    for elements, continuous in product(
        ((swap,), (scaling,), (swap, scaling)), (None, LinearPart(1))
    ):
        context = GroupContext(elements, continuous)
        for kind in MEMBERSHIP_KINDS:
            for obj in polys if kind in FUNCTION_KINDS else maps:
                assert membership(obj, context, kind) == reference_membership(
                    obj, context, kind
                ), (kind, str(obj))


def test_pullback_check_counts_the_target_terms():
    # membership checks every stored component, so there a target with an
    # extra term always leaves another component's term without its image;
    # the check of one pair must still see the extra term itself
    swap = MONOMIAL_ELEMENTS[0]
    sources, scaled = _monomial_images(swap, 4)
    image = itemgetter(*sources)
    x1, x2 = Polynomial.variable(4, 0), Polynomial.variable(4, 1)
    assert _pulls_back_to(x1, image, scaled, x2, 1, (1, 0))
    assert not _pulls_back_to(x1, image, scaled, x2 + x1, 1, (1, 0))
    assert not _pulls_back_to(x1, image, scaled, x2, 1, (-1, 0))


def test_membership_errors():
    # the classes the Polynomial reference raises, on zero and nonzero objects
    phi1, phi2 = phi_element(1), phi_element(2)
    p, g = Polynomial.variable(4, 0), _identity_map(1)
    cases = [
        ((p, GroupContext((phi2,)), "invariant"), DimensionError),
        ((Polynomial.zero(4), GroupContext((phi2,)), "anti_invariant"), DimensionError),
        ((g, GroupContext((phi2,)), "equivariant"), DimensionError),
        ((PolyMap.zero(1), GroupContext((phi2,)), "reversible_equivariant"), DimensionError),
        ((p, GroupContext((phi1, phi2)), "invariant"), DimensionError),
        ((g, GroupContext((phi1,)), "invariant"), TypeError),
        ((p, GroupContext((phi1,)), "reversible_equivariant"), TypeError),
        ((p, GroupContext((phi1,)), "odd"), ValueError),
        ((g, GroupContext((phi1,)), "odd"), ValueError),
    ]
    for args, error in cases:
        for check in (membership, reference_membership):
            with pytest.raises(error):
                check(*args)
    linear = LinearPart(1)
    with pytest.raises(TypeError):
        linear.infinitesimal_ok(g, "invariant")
    with pytest.raises(TypeError):
        linear.infinitesimal_ok(p, "equivariant")
    with pytest.raises(ValueError):
        linear.infinitesimal_ok(p, "odd")


def test_anticommute_examples():
    linear = LinearPart(2)
    phi = phi_element(2)
    assert anticommute_check(phi, linear)
    ident = SignedElement(sparse(identity_matrix(6)), 1)
    assert not anticommute_check(ident, linear)
    with pytest.raises(DimensionError):
        anticommute_check(phi_element(3), linear)


def test_monomial_elements_skip_the_rank_but_singular_ones_still_fail():
    # invertibility is read off the rows, with no elimination: one nonzero
    # entry in each row and each column
    phi_element(2)
    psi_element((-1, 1, -1))
    SignedElement(sparse(scaling_on_block(2, 1, I)), 1)
    repeated_column = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    empty_row = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for rows in (repeated_column, empty_row):
        with pytest.raises(DimensionError, match="invertible"):
            SignedElement(sparse(rows), 1)


def test_products_of_checked_elements_skip_the_checks(monkeypatch):
    import birevnf.poly as poly_module

    linear = LinearPart(2)
    phi, psi = phi_element(2), psi_element((1, -1, 1))
    rotation = SignedElement(sparse(scaling_on_block(2, 1, I)), 1, "rotation")
    checked = []
    real = poly_module.check_conjugation_compatible
    monkeypatch.setattr(
        poly_module, "check_conjugation_compatible",
        lambda *a: checked.append(1) or real(*a),
    )
    derived = [(phi, psi), (psi, rotation), (rotation, rotation), (rotation, phi)]
    products = [compose(a.action, b.action) for a, b in derived]
    # the pair check composes its products and the identity's rows without
    # the check too
    check_involution_pair(linear, phi, psi)
    assert checked == []
    SignedElement(rotation.rows, 1)
    assert checked == [1]
    monkeypatch.undo()
    for factors, rows in zip(derived, products):
        assert rows == triple_rows(element_product(*factors))

