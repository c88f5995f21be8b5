"""Exact elimination: nullspaces, span bases and ranks, against dense references."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from birevnf.errors import DimensionError, IncompatibleMatrix
from birevnf.group import SignedElement
from birevnf.linalg import (
    Echelon,
    polymap_from_vector,
    polynomial_from_vector,
    vectorize_polymap,
    vectorize_polynomial,
    vectorize_terms,
)
from birevnf.poly import PolyMap, Polynomial, parse_polymap, parse_polynomial

from conftest import dense, dense_rref, make_rng, random_polymap, random_polynomial, sparse


def test_nullspace_of_simple_relation():
    # x + 2y = 0 over columns (0, 1, 2)
    basis = Echelon([{0: 1, 1: 2}]).nullspace([0, 1, 2])
    assert len(basis) == 2
    assert basis[0] == {1: Fraction(1), 0: Fraction(-2)}
    assert basis[1] == {2: Fraction(1)}


def test_nullspace_full_rank_is_empty():
    basis = Echelon([{0: 1}, {1: 3}]).nullspace([0, 1])
    assert basis == []


def test_fraction_free_matches_plain_on_random_systems():
    from reference_oracle import _plain_nullspace

    rng = make_rng(42)
    for _ in range(20):
        ncols = rng.randint(2, 7)
        rows = []
        for _ in range(rng.randint(1, 6)):
            row = {
                c: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for c in range(ncols)
                if rng.random() < 0.6
            }
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
        cols = list(range(ncols))
        a = Echelon([dict(r) for r in rows]).nullspace(cols)
        b = _plain_nullspace([dict(r) for r in rows], cols)
        assert len(a) == len(b)
        span = Echelon(a)
        for vec in b:
            assert span.contains(vec)


def test_span_basis_membership_and_dimension():
    span = Echelon([{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(2)}])
    assert len(span.pivots) == 2
    assert span.contains({0: Fraction(3)})
    assert not span.contains({2: Fraction(1)})
    assert not span.insert({0: Fraction(1), 1: Fraction(-7)})
    assert span.insert({2: Fraction(5)})


def test_matrix_inverse_and_rank():
    # a monomial element has full rank exactly when its rows hit distinct
    # columns; a map with a full row is no element at all
    m = ((0, 2), (-1, 0))
    assert dense(SignedElement(sparse(m), 1)) == m
    assert dense_rref([list(row) for row in m], 2) == 2
    singular = ((0, 2), (0, 4))
    assert dense_rref([list(row) for row in singular], 2) == 1
    with pytest.raises(DimensionError, match="invertible"):
        SignedElement(sparse(singular), 1)
    with pytest.raises(IncompatibleMatrix, match="row 0"):
        SignedElement(sparse(((1, 1), (0, 2))), 1)


def test_vectorize_round_trip_polynomial():
    # a polynomial's vector is the map vector of that polynomial as the z1
    # component, relabelled to component -1, and both vectors read back
    p = random_polynomial(make_rng(3), 2, max_degree=4)
    zero = Polynomial.zero(p.nvars)
    g = PolyMap((zero, zero), (p, zero))
    vec = vectorize_polymap(g)
    assert polymap_from_vector(vec, 2) == g
    assert {(-1, key, part): v for (_comp, key, part), v in vec.items()} == (
        vectorize_polynomial(p)
    )
    assert polynomial_from_vector(vectorize_polynomial(p), p.nvars) == p
    # a map's vector is not a polynomial's, nor the other way round
    with pytest.raises(ValueError):
        polynomial_from_vector(vec, p.nvars)
    with pytest.raises(ValueError):
        polymap_from_vector(vectorize_polynomial(p), 2)


def test_vectorize_round_trip_polymap():
    g = random_polymap(make_rng(4), 2, max_degree=3)
    assert polymap_from_vector(vectorize_polymap(g), 2) == g


def test_column_keys_are_component_grlex_key_and_part():
    # the key layout is pinned literally: every encoding shares it, so a
    # wrong degree or part would agree with itself in any comparison
    p = parse_polynomial("x1^2*z1 - 1/2*x1 + 2*i*zb1", 1)
    assert vectorize_polynomial(p) == {
        (-1, (3, (2, 0, 1, 0)), 0): 1,
        (-1, (1, (1, 0, 0, 0)), 0): Fraction(-1, 2),
        (-1, (1, (0, 0, 0, 1)), 1): 2,
    }
    g = parse_polymap("(0, x1*x2, (3 - i)*z1)", 1)
    assert vectorize_polymap(g) == {
        (1, (2, (1, 1, 0, 0)), 0): 1,
        (2, (1, (0, 0, 1, 0)), 0): 3,
        (2, (1, (0, 0, 1, 0)), 1): -1,
    }
    assert vectorize_terms([(2, {(0, 0, 1, 0): (3, -1)}), (1, {(1, 1, 0, 0): (1, 0)})]) == (
        vectorize_polymap(g)
    )


def test_echelon_rank_is_row_order_independent():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1, 2: 1}]
    e1, e2 = Echelon(), Echelon()
    for r in rows:
        e1.insert(dict(r))
    for r in reversed(rows):
        e2.insert(dict(r))
    assert len(e1.pivots) == len(e2.pivots) == 2
    assert sorted(e1.pivots) == sorted(e2.pivots)


_entries = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
)


@st.composite
def rational_systems(draw):
    ncols = draw(st.integers(1, 6))
    row = st.lists(_entries, min_size=ncols, max_size=ncols)
    return ncols, draw(st.lists(row, max_size=6))


@given(rational_systems(), st.randoms())
# a row whose lead is new but whose tail hits an existing pivot
@example((2, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]), Random(0))
def test_reduced_rows_are_the_dense_rref_in_any_order(system, rnd):
    ncols, dense = system
    sparse = [{c: v for c, v in enumerate(row) if v} for row in dense]
    shuffled = list(sparse)
    rnd.shuffle(shuffled)
    rref = [list(row) for row in dense]
    rank = dense_rref(rref, ncols)
    expected = [{c: x for c, x in enumerate(row) if x} for row in rref[:rank]]
    assert Echelon(sparse).reduced_rows() == expected
    assert Echelon(shuffled).reduced_rows() == expected


@given(rational_systems(), st.booleans())
def test_echelon_entries_are_int_exactly_when_integral(system, scaled_to_ints):
    ncols, dense = system
    if scaled_to_ints:
        # all-int rows, which Echelon takes as they are
        dense = [[int(v * 6) for v in row] for row in dense]
    ech = Echelon({c: v for c, v in enumerate(row) if v} for row in dense)
    assert all(type(v) is int for row in ech.pivots.values() for v in row.values())
    for vec in ech.reduced_rows() + ech.nullspace(range(ncols)):
        for v in vec.values():
            assert type(v) is (int if v.denominator == 1 else Fraction)
