"""Exact arithmetic, substitution, and rendering of the polynomial layer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from birevnf.continuous import (
    LinearPart,
    SymmetryContext,
    phi_element,
    phi_rows,
    psi_element,
    psi_rows,
)
from birevnf.errors import DimensionError, IncompatibleMatrix
from birevnf.group import SignedElement
from birevnf.poly import (
    GaussianRational,
    I,
    LinearAction,
    PolyMap,
    Polynomial,
    _coerce,
    check_conjugation_compatible,
    compose,
    conj_index,
    im_part,
    parse_polymap,
    parse_polynomial,
    re_part,
    render_polymap,
    render_polynomial,
    Substitution,
    polynomial_from_terms,
    terms_of,
    z_index,
    zbar_index,
)

from conftest import (
    MONOMIAL_ELEMENTS,
    dense,
    dense_of_triples,
    element_product,
    identity_matrix,
    make_rng,
    mat_mul,
    random_polymap,
    random_polynomial,
    sparse,
)
from reference_oracle import compose_linear


def var(nvars, index):
    return Polynomial.variable(nvars, index)


def test_additive_inverse():
    x1 = var(4, 0)
    assert (x1 + (-x1)).is_zero()


def test_product_of_conjugate_pair_is_norm_monomial():
    nvars = 4
    z1 = var(nvars, z_index(1))
    zb1 = var(nvars, zbar_index(1))
    prod = z1 * zb1
    mono = [0] * nvars
    mono[z_index(1)] = 1
    mono[zbar_index(1)] = 1
    assert prod == Polynomial.monomial(nvars, tuple(mono))


def test_resonant_re_im_square_identity():
    # Re(w)^2 + Im(w)^2 == |z1|^(2 n2) |z2|^(2 n1) for w = z1^n2 conj(z2)^n1
    n1, n2 = 1, 2
    nvars = 8
    mono = [0] * nvars
    mono[z_index(1)] = n2
    mono[zbar_index(2)] = n1
    w = Polynomial.monomial(nvars, tuple(mono))
    v4 = re_part(w)
    v5 = im_part(w)
    norm1 = [0] * nvars
    norm1[z_index(1)] = 1
    norm1[zbar_index(1)] = 1
    v2 = Polynomial.monomial(nvars, tuple(norm1))
    norm2 = [0] * nvars
    norm2[z_index(2)] = 1
    norm2[zbar_index(2)] = 1
    v3 = Polynomial.monomial(nvars, tuple(norm2))
    assert v4 * v4 + v5 * v5 == v2 ** n2 * v3 ** n1


def test_substitution_by_first_involution_negates_x2():
    nvars = 8
    x2 = var(nvars, 1)
    assert x2.substitute_linear(LinearAction(phi_rows(3), nvars)) == -x2


def test_substitution_by_identity():
    rng = make_rng(1)
    p = random_polynomial(rng, 2)
    assert p.substitute_linear(LinearAction(sparse(identity_matrix(6)), 6)) == p


@pytest.mark.parametrize("a1", [1, -1])
def test_norm_square_invariant_under_second_involution(a1):
    nvars = 4
    mono = [0] * nvars
    mono[z_index(1)] = 1
    mono[zbar_index(1)] = 1
    norm = Polynomial.monomial(nvars, tuple(mono))
    assert norm.substitute_linear(LinearAction(psi_rows((1, a1)), nvars)) == norm
    assert norm.substitute_linear(LinearAction(psi_rows((-1, a1)), nvars)) == norm


def test_resonant_invariant_is_homogeneous():
    n1, n2 = 2, 3
    nvars = 8
    mono = [0] * nvars
    mono[z_index(1)] = n2
    mono[zbar_index(2)] = n1
    v4 = re_part(Polynomial.monomial(nvars, tuple(mono)))
    assert v4.is_homogeneous()


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_ring_axioms_on_random_inputs(sa, sb, sc):
    rng_a, rng_b, rng_c = make_rng(sa), make_rng(sb), make_rng(sc)
    a = random_polynomial(rng_a, 1, max_degree=4)
    b = random_polynomial(rng_b, 1, max_degree=4)
    c = random_polynomial(rng_c, 1, max_degree=4)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.integers(0, 10_000))
def test_conjugation_is_an_involution(seed):
    p = random_polynomial(make_rng(seed), 2)
    assert p.conj().conj() == p


@given(st.integers(0, 10_000))
def test_substitution_composes(seed):
    p = random_polynomial(make_rng(seed), 2, max_degree=3)
    a = LinearAction(phi_rows(2), 6)
    b = LinearAction(psi_rows((-1, 1, -1)), 6)
    ab = LinearAction(sparse(mat_mul(dense(a), dense(b))), 6)
    assert p.substitute_linear(a).substitute_linear(b) == p.substitute_linear(ab)


def test_incompatible_matrix_rejected():
    # swapping x1 with z1 breaks the conjugation pairing
    nvars = 4
    rows = [[0] * nvars for _ in range(nvars)]
    rows[0][z_index(1)] = 1
    rows[1][1] = 1
    rows[z_index(1)][0] = 1
    rows[zbar_index(1)][zbar_index(1)] = 1
    with pytest.raises(IncompatibleMatrix):
        var(nvars, 0).substitute_linear(LinearAction(sparse(rows), nvars))


@given(st.integers(0, 10_000))
def test_reality_preserved_by_arithmetic_and_substitution(seed):
    rng = make_rng(seed)
    p = random_polynomial(rng, 2, max_degree=4)
    real = p + p.conj()
    assert real.is_real_valued()
    assert (real + real).is_real_valued()
    assert real.scale(Fraction(3, 7)).is_real_valued()
    assert real.substitute_linear(LinearAction(phi_rows(2), 6)).is_real_valued()


@given(st.integers(0, 10_000))
def test_polynomial_render_parse_round_trip(seed):
    p = random_polynomial(make_rng(seed), 2, max_degree=4)
    assert parse_polynomial(render_polynomial(p), 2) == p


@given(st.integers(0, 10_000))
def test_polymap_render_parse_round_trip(seed):
    g = random_polymap(make_rng(seed), 2, max_degree=3)
    assert parse_polymap(render_polymap(g), 2) == g


def test_render_is_deterministic_and_graded():
    nvars = 4
    p = var(nvars, 0) + var(nvars, 1) ** 2 + Polynomial.constant(nvars, I)
    assert render_polynomial(p) == "x2^2 + x1 + i"
    assert render_polynomial(p) == render_polynomial(p)


def test_polymap_reality_enforced():
    nvars = 4
    z1 = var(nvars, z_index(1))
    with pytest.raises(IncompatibleMatrix):
        PolyMap((z1, Polynomial.zero(nvars)), (Polynomial.zero(nvars),))


def test_polymap_conjugate_components_are_implicit():
    rng = make_rng(7)
    g = random_polymap(rng, 1, max_degree=3)
    comps = g.components()
    assert comps[zbar_index(1)] == g.z_components[0].conj()


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3))
    b = GaussianRational(0, 1)
    assert a * b / b == a
    assert (a - a) == GaussianRational(0)
    assert b ** 2 == GaussianRational(-1)
    assert b ** 3 == -b


RATIONALS = st.integers(-50, 50) | st.fractions(max_denominator=12).filter(
    lambda q: abs(q) <= 50
)
GAUSSIAN_PARTS = st.tuples(RATIONALS, RATIONALS)


def assert_canonical(c: GaussianRational, re: Fraction, im: Fraction):
    """c equals re + im*i, each part an int exactly when it is integral."""
    for part, expected in ((c.re, re), (c.im, im)):
        assert part == expected
        assert not isinstance(part, float)
        if expected.denominator == 1:
            assert type(part) is int
        else:
            assert type(part) is Fraction


@settings(max_examples=200)
@given(GAUSSIAN_PARTS, GAUSSIAN_PARTS, st.integers(-3, 3))
@example((1, 0), (0, 3), -1)  # ONE / GaussianRational(0, 3) divides two ints
@example((Fraction(3), 0), (4, 2), 2)
def test_gaussian_rational_parts_are_canonical(a, b, exponent):
    x, y = GaussianRational(*a), GaussianRational(*b)
    ar, ai = map(Fraction, a)
    br, bi = map(Fraction, b)
    assert_canonical(x, ar, ai)
    assert_canonical(x + y, ar + br, ai + bi)
    assert_canonical(x - y, ar - br, ai - bi)
    assert_canonical(x * y, ar * br - ai * bi, ar * bi + ai * br)
    assert_canonical(-x, -ar, -ai)
    assert_canonical(x.conjugate(), ar, -ai)
    norm = br * br + bi * bi
    if norm:
        assert_canonical(
            x / y, (ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm
        )
    if x or exponent >= 0:
        # the plain-Fraction reference power, by repeated multiplication
        pr, pi = Fraction(1), Fraction(0)
        for _ in range(abs(exponent)):
            pr, pi = pr * ar - pi * ai, pr * ai + pi * ar
        if exponent < 0:
            n = pr * pr + pi * pi
            pr, pi = pr / n, -pi / n
        assert_canonical(x ** exponent, pr, pi)
    # a part given as an integral Fraction is the int it equals
    same = GaussianRational(Fraction(ar), Fraction(ai))
    assert same == x and hash(same) == hash(x)
    if ar.denominator == ai.denominator == 1:
        as_ints = GaussianRational(int(ar), int(ai))
        assert as_ints == same and hash(as_ints) == hash(same)


@pytest.mark.parametrize("parts", [(0.5,), (1, 0.5), (1.0, 0)])
def test_gaussian_rational_rejects_floats(parts):
    with pytest.raises(TypeError):
        GaussianRational(*parts)


# -- compiled linear actions -------------------------------------------------


def shear_matrix(nvars):
    """x2 -> x1 + x2, the identity elsewhere: conjugation-compatible, not monomial.

    A group element of the shear, which no map of the engine is: row 1 has
    two nonzero entries.
    """
    rows = [[int(i == j) for j in range(nvars)] for i in range(nvars)]
    rows[1][0] = 1
    return sparse(rows)


def x_z_swap_matrix():
    """Swaps x1 with z1, which breaks the conjugation pairing."""
    nvars = 4
    rows = [[0] * nvars for _ in range(nvars)]
    rows[0][z_index(1)] = 1
    rows[1][1] = 1
    rows[z_index(1)][0] = 1
    rows[zbar_index(1)][zbar_index(1)] = 1
    return sparse(rows)


ACTIONS = {
    "phi": phi_element(2).action,
    "psi": psi_element((-1, 1, -1)).action,
    "phi*psi": element_product(phi_element(2), psi_element((-1, 1, -1))).action,
    # x1 d/dx2, the nilpotent infinitesimal shear: x2 -> x1, an empty x1 row
    "shear": LinearPart(2).infinitesimal_generators()[0],
}


def naive_substitute(p, matrix):
    """p(A v) by expanding every variable into its full row of A."""
    n = p.nvars
    forms = [
        sum((var(n, j).scale(matrix[i][j]) for j in range(n)), Polynomial.zero(n))
        for i in range(n)
    ]
    result = Polynomial.zero(n)
    for mono, coeff in p.sorted_terms():
        term = Polynomial.constant(n, coeff)
        for i, e in enumerate(mono):
            term = term * forms[i] ** e
        result = result + term
    return result


def naive_apply(g, matrix):
    """A . g by the dense product of A with the full component vector."""
    full = g.components()
    n = g.nvars
    rows = [
        sum((full[j].scale(matrix[i][j]) for j in range(n)), Polynomial.zero(n))
        for i in range(n)
    ]
    return PolyMap(rows[:2], [rows[z_index(j)] for j in range(1, g.nblocks + 1)])


def _golden_actions():
    """The distinct actions of every element of every sign class of the
    golden regimes, then those of MONOMIAL_ELEMENTS."""
    from test_golden_gensets import REGIMES

    elements = []
    for case, params, n in REGIMES:
        for signs in itertools.product((1, -1), repeat=n + 1):
            elements += SymmetryContext.from_case(case, params, signs).full_context().elements
    elements += MONOMIAL_ELEMENTS
    return list({el.action.rows: el.action for el in elements}.values())


def test_substitution_power_table_matches_substitute_linear():
    # one Substitution per action serves every monomial, so its tabled
    # powers are read back after they were grown, up to exponent 12
    actions = _golden_actions()
    entries = {c for action in actions for row in action.rows for _, c in row}
    assert {I, -I} <= entries
    assert any(c.re.denominator > 1 or c.im.denominator > 1 for c in entries)
    coeff = GaussianRational(Fraction(2, 3), -1)
    for action in actions:
        substitute = Substitution(action)
        n = action.nvars
        monos = [tuple(e if v == i else 0 for v in range(n)) for e in range(13) for i in range(n)]
        monos += [tuple((v + e) % 13 for v in range(n)) for e in range(13)]
        for mono in monos + monos[::-1]:
            image: dict = {}
            substitute.add_image(image, mono, coeff.re, coeff.im)
            expected = Polynomial(n, {mono: coeff}).substitute_linear(action)
            assert image == terms_of(expected), (action.rows, mono)


@pytest.mark.parametrize("name", sorted(ACTIONS))
@given(st.integers(0, 10_000))
def test_action_and_raw_matrix_agree(name, seed):
    action = ACTIONS[name]
    matrix = dense(action)
    rng = make_rng(seed)
    p = random_polynomial(rng, 2, max_degree=4)
    g = random_polymap(rng, 2, max_degree=3)
    expected_p = naive_substitute(p, matrix)
    assert p.substitute_linear(action) == expected_p
    assert p.substitute_linear(LinearAction(sparse(matrix), 6)) == expected_p
    expected_compose = PolyMap(
        [naive_substitute(c, matrix) for c in g.x_components],
        [naive_substitute(c, matrix) for c in g.z_components],
    )
    assert compose_linear(g, action) == expected_compose
    assert compose_linear(g, LinearAction(sparse(matrix), 6)) == expected_compose
    expected_apply = naive_apply(g, matrix)
    assert g.apply_linear(action) == expected_apply
    assert g.apply_linear(LinearAction(sparse(matrix), 6)) == expected_apply


def test_incompatible_matrix_rejected_by_every_entry_point():
    bad = x_z_swap_matrix()
    g = random_polymap(make_rng(3), 1, max_degree=2)
    with pytest.raises(IncompatibleMatrix):
        g.apply_linear(LinearAction(bad, 4))
    with pytest.raises(IncompatibleMatrix):
        compose_linear(g, LinearAction(bad, 4))
    with pytest.raises(IncompatibleMatrix):
        SignedElement(bad, 1)
    with pytest.raises(IncompatibleMatrix):
        LinearAction(bad, 4)


def test_a_row_with_two_nonzero_entries_is_refused_by_every_entry_point():
    # the shear x2 -> x1 + x2, and z1 -> z1 + i conj(z1) with its partner;
    # the first such row is named, whatever its other rows
    z_mix = sparse(_identity_with(4, (2, 3, I), (3, 2, -I)))
    both = sparse(_identity_with(4, (1, 0, 1), (2, 3, I), (3, 2, -I)))
    for rows, named in ((shear_matrix(6), 1), (z_mix, 2), (both, 1)):
        message = rf"row {named} has 2 nonzero entries; a linear map must be monomial"
        with pytest.raises(IncompatibleMatrix, match=message):
            check_conjugation_compatible(rows, len(rows))
        with pytest.raises(IncompatibleMatrix, match=message):
            LinearAction(rows, len(rows))
        with pytest.raises(IncompatibleMatrix, match=message):
            SignedElement(rows, 1)


def test_action_on_the_wrong_number_of_coordinates_rejected():
    action = phi_element(1).action
    with pytest.raises(DimensionError):
        var(6, 0).substitute_linear(action)
    with pytest.raises(DimensionError):
        random_polymap(make_rng(4), 2, max_degree=2).apply_linear(action)


def test_rows_that_are_not_a_map_on_2n_plus_2_coordinates_rejected():
    identity = sparse(identity_matrix(4))
    for rows, nvars in (
        (sparse(identity_matrix(3)), 3),  # odd: no partner for the last index
        (identity[:3], 4),  # a row missing
        (identity[:3] + (((4, 1),),), 4),  # a column out of range
        (identity[:3] + (((3, 1), (3, 1)),), 4),  # a column listed twice
    ):
        with pytest.raises(DimensionError):
            LinearAction(rows, nvars)
        with pytest.raises(DimensionError):
            SignedElement(rows, 1)


# -- the conjugation check against the walk over every entry ---------------


def _dense_conjugation_check(matrix, nvars):
    """Row by row, every entry coerced and at most one nonzero; then every
    entry compared with its partner."""
    if len(matrix) != nvars or any(len(row) != nvars for row in matrix):
        raise DimensionError(f"matrix must be {nvars}x{nvars}")
    coerced = []
    for i, row in enumerate(matrix):
        coerced.append([_coerce(x) for x in row])
        if sum(1 for x in coerced[i] if x) > 1:
            raise IncompatibleMatrix(f"row {i} has more than one nonzero entry")
    for i in range(nvars):
        for j in range(nvars):
            if coerced[conj_index(i)][conj_index(j)] != coerced[i][j].conjugate():
                raise IncompatibleMatrix(f"entry ({i},{j}) breaks the conjugation pairing")


def _outcome(check, matrix):
    try:
        check(matrix, len(matrix))
    except Exception as exc:  # the class, and the message naming an entry
        return type(exc), str(exc)
    return None


_EXACT = [0, 0, 0, 1, -1, Fraction(1, 2), Fraction(0), False, True,
          GaussianRational(0), I, GaussianRational(1, -2)]
_FLOATS = [0.0, 1.0, -0.5]


def _conjugate(x):
    return x.conjugate() if isinstance(x, GaussianRational) else x


@st.composite
def _paired_matrices(draw):
    """A matrix that respects the pairing, then up to three entries overwritten.

    Dense, or monomial: each row one entry at a drawn column (an x row at an
    x column) and zeros of every exact type elsewhere.
    """
    nvars = draw(st.sampled_from((3, 4, 6)))
    monomial = draw(st.booleans())
    zeros = [x for x in _EXACT if not x]
    rows = [[0] * nvars for _ in range(nvars)]
    for i in range(nvars):
        column = draw(st.integers(0, 1 if i < 2 else nvars - 1)) if monomial else None
        for j in range(nvars):
            ci, cj = conj_index(i), conj_index(j)
            if max(ci, cj) < nvars and (ci, cj) < (i, j):
                rows[i][j] = _conjugate(rows[ci][cj])
                continue
            value = draw(st.sampled_from(zeros if monomial and j != column else _EXACT))
            if (ci, cj) == (i, j) and isinstance(value, GaussianRational):
                value = GaussianRational(value.re)
            rows[i][j] = value
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, nvars - 1)), draw(st.integers(0, nvars - 1))
        rows[i][j] = draw(st.sampled_from(_EXACT + _FLOATS))
    return rows


def _identity_with(nvars, *entries):
    rows = [[int(i == j) for j in range(nvars)] for i in range(nvars)]
    for i, j, value in entries:
        rows[i][j] = value
    return rows


@settings(max_examples=300)
@given(_paired_matrices())
@example(_identity_with(4))
@example(_identity_with(4, (2, 3, 1)))  # the zero (3,2) pairs with a nonzero entry
@example(_identity_with(4, (3, 2, 1)))  # the same break, named at its nonzero (3,2)
@example(_identity_with(4, (0, 2, I)))  # row x1 has a z entry too: not monomial
@example(_identity_with(4, (1, 0, 1), (2, 2, 1.0)))  # a wide row before a float
@example(_identity_with(4, (3, 2, 0.0)))  # a float zero whose partner is an exact zero
@example(_identity_with(4, (1, 1, 1.0)))
@example(_identity_with(3))  # odd: not 2n + 2 coordinates
def test_conjugation_check_matches_the_walk_over_every_entry(matrix):
    nvars = len(matrix)
    outcome = _outcome(lambda m, n: check_conjugation_compatible(sparse(m), n), matrix)
    if nvars % 2:
        # no 2n + 2 coordinates: refused before any entry is read
        assert outcome[0] is DimensionError
        return
    expected = _outcome(_dense_conjugation_check, matrix)
    assert (outcome and outcome[0]) == (expected and expected[0])
    if outcome is None:
        exact = tuple(tuple(_coerce(x) for x in row) for row in matrix)
        assert dense(LinearAction(sparse(matrix), nvars)) == exact
    elif outcome[0] is IncompatibleMatrix and outcome[1].startswith("row"):
        # both name the first row with two nonzero entries
        assert outcome[1].split()[1] == expected[1].split()[1]
    elif outcome[0] is IncompatibleMatrix:
        # every row is monomial, and the named entry is nonzero and differs
        # from its partner's conjugate
        assert all(sum(1 for x in row if _coerce(x)) <= 1 for row in matrix)
        i, j = map(int, outcome[1].split("(")[1].split(")")[0].split(","))
        x = _coerce(matrix[i][j])
        assert x and matrix[conj_index(i)][conj_index(j)] != x.conjugate()


# -- the product of two actions against the dense product -------------------

_PARTS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))


@st.composite
def _monomial_actions(draw, nvars):
    """A monomial, conjugation-compatible action on nvars coordinates.

    An x row has a real entry at an x column; a z row has any entry at any
    column, and its partner row the conjugate at the partner column.  An
    entry is an int, a Fraction or a GaussianRational, and may be 0; a row
    may be empty.
    """
    rows = [()] * nvars
    for i in (0, 1):
        if draw(st.integers(0, 3)):
            real = draw(st.one_of(_PARTS, st.builds(GaussianRational, _PARTS)))
            rows[i] = ((draw(st.integers(0, 1)), real),)
    for i in range(2, nvars, 2):
        if draw(st.integers(0, 3)):
            j = draw(st.integers(0, nvars - 1))
            x = draw(st.one_of(_PARTS, st.builds(GaussianRational, _PARTS, _PARTS)))
            rows[i], rows[i + 1] = ((j, x),), ((conj_index(j), _conjugate(x)),)
    return LinearAction(rows, nvars)


_EMPTY = LinearAction(((),) * 6, 6)


@settings(max_examples=200)
@given(
    st.sampled_from((4, 6, 8)).flatmap(
        lambda nvars: st.tuples(_monomial_actions(nvars), _monomial_actions(nvars))
    )
)
@example((_EMPTY, phi_element(2).action))
@example((phi_element(2).action, _EMPTY))
@example((psi_element((1, -1, 1)).action, phi_element(2).action))
def test_compose_is_the_dense_product(pair):
    # the (column, re, im) rows of a b, and a nonzero entry in a row only
    # where the dense product has one
    a, b = pair
    rows = compose(a, b)
    assert dense_of_triples(rows) == mat_mul(dense(a), dense(b))
    assert all(len(row) <= 1 and all(re or im for _, re, im in row) for row in rows)


# -- the trusted constructor -------------------------------------------------


@given(st.integers(0, 10_000))
def test_trusted_results_equal_validated_polynomials(seed):
    rng = make_rng(seed)
    p = random_polynomial(rng, 2, max_degree=4)
    q = random_polynomial(rng, 2, max_degree=4)
    results = [
        p + q, p - q, -p, p * q, p * p.conj(), p.scale(GaussianRational(Fraction(1, 3), 2)),
        p.conj(), p.substitute_linear(phi_element(2).action),
        polynomial_from_terms(6, terms_of(p)),
    ]
    for r in results:
        validated = Polynomial(r.nvars, dict(r.sorted_terms()))
        assert r == validated and hash(r) == hash(validated)
        assert all(type(c) is GaussianRational and c for _, c in r.sorted_terms())


def test_polynomial_from_terms_is_canonical():
    # Fraction parts with denominator 1 become ints, all-zero parts are dropped
    terms = {
        (1, 0, 0, 0): (Fraction(2), Fraction(0)),
        (0, 1, 0, 0): (0, Fraction(0)),
        (0, 0, 1, 0): (Fraction(1, 2), 3),
    }
    p = polynomial_from_terms(4, terms)
    validated = Polynomial(4, {m: GaussianRational(re, im) for m, (re, im) in terms.items()})
    assert p == validated and hash(p) == hash(validated)
    assert len(p) == 2
    assert type(dict(p.sorted_terms())[(1, 0, 0, 0)].re) is int


def test_public_constructor_still_validates():
    with pytest.raises(DimensionError):
        Polynomial(4, {(1, 0, 0): 1})
    with pytest.raises(TypeError):
        Polynomial(4, {(1, 0, 0, 0): 0.5})
    with pytest.raises(TypeError):
        Polynomial(4, {(1, 0, 0, 0): 0.0})
