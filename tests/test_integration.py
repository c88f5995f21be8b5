"""Cross-cutting certification runs beyond the acceptance minimums."""

import pytest

from birevnf.continuous import SymmetryContext, closure_data
from birevnf.oracle import module_slice, slice_space, spans_equal
from birevnf.symmetry_ops import pipeline


def certify_against_oracle(ctx, degrees):
    gs = pipeline(ctx)
    full = ctx.full_context()
    for d in degrees:
        oracle = slice_space(full, d, "reversible_equivariant")
        module = module_slice(gs, d)
        assert spans_equal(oracle, module).equal, d
    return gs


def test_other_exponent_pair_certifies():
    # nothing is special about (1,2): run (2,3) through the full machinery
    for signs in ((1, 1, 1, 1), (-1, 1, -1, 1)):
        ctx = SymmetryContext.from_case("res_n1n2_C3", (2, 3), signs)
        certify_against_oracle(ctx, (2, 3, 4))


def test_four_block_single_resonance_certifies_against_oracle():
    ctx = SymmetryContext.from_case("res_n1n2_Cn", (1, 2, 4), (1, 1, -1, 1, -1))
    certify_against_oracle(ctx, (2, 3))


def test_non_resonant_output_depends_only_on_first_sign():
    # the block signs on the rotation part leave the generators unchanged
    for a0 in (1, -1):
        base = pipeline(SymmetryContext.from_case("non_resonant", (2,), (a0, 1, 1)))
        for tail in ((-1, 1), (1, -1), (-1, -1)):
            other = pipeline(
                SymmetryContext.from_case("non_resonant", (2,), (a0,) + tail)
            )
            assert set(base.module_generators) == set(other.module_generators)
            assert set(base.ring_basis) == set(other.ring_basis)


def test_user_supplied_group_data_equal_frequencies():
    # no named case covers equal frequencies; the API builds the context
    # from the linear part, whose derived catalog is the hand-written one
    # and certifies against the oracle
    from birevnf.continuous import LinearPart
    from birevnf.poly import I, PolyMap, Polynomial, im_part, re_part

    n = 2
    nvars = 6
    linear = LinearPart(n, ((1, -1),))
    assert linear.torus_weight_rows() == ((1, 1),)
    zero = Polynomial.zero(nvars)

    def mono(**exponents):
        m = [0] * nvars
        for name, e in exponents.items():
            m[{"z1": 2, "zb1": 3, "z2": 4, "zb2": 5}[name]] = e
        return Polynomial.monomial(nvars, tuple(m))

    def unit(slot, p):
        xs = [zero, zero]
        zs = [zero, zero]
        if slot < 2:
            xs[slot] = p
        else:
            zs[slot - 2] = p
        return PolyMap(tuple(xs), tuple(zs))

    cross = mono(z1=1, zb2=1)
    basis = (
        Polynomial.variable(nvars, 0),
        mono(z1=1, zb1=1),
        mono(z2=1, zb2=1),
        re_part(cross),
        im_part(cross),
    )
    z1 = Polynomial.variable(nvars, 2)
    z2 = Polynomial.variable(nvars, 4)
    gens = (
        PolyMap(
            (Polynomial.variable(nvars, 0), Polynomial.variable(nvars, 1)),
            (zero, zero),
        ),
        unit(1, Polynomial.constant(nvars, 1)),
        unit(2, z1),
        unit(2, z1.scale(I)),
        unit(2, z2),
        unit(2, z2.scale(I)),
        unit(3, z2),
        unit(3, z2.scale(I)),
        unit(3, z1),
        unit(3, z1.scale(I)),
    )
    # the derived catalog has the same elements, in its own order
    derived = closure_data(linear)
    assert set(derived.hilbert_basis) == set(basis)
    assert set(derived.equivariant_generators) == set(gens)
    for signs in ((1, 1, 1), (1, 1, -1), (-1, 1, -1)):
        ctx = SymmetryContext.build(linear, signs)
        certify_against_oracle(ctx, (2, 3))
    gs = pipeline(SymmetryContext.build(linear, (1, 1, -1)))
    assert [str(p) for p in gs.ring_basis] == [
        "x1",
        "z1*zb1",
        "z2*zb2",
        "z1^2*zb2^2 + 2*z1*zb1*z2*zb2 + zb1^2*z2^2",
    ]
    assert len(gs.module_generators) == 6


def test_dimension_regression_snapshot():
    # frozen exact dimensions for the (1,2) single resonance, identity signs
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, 1, 1))
    full = ctx.full_context()
    table = {
        kind: {d: slice_space(full, d, kind).dimension for d in range(5)}
        for kind in ("invariant", "anti_invariant", "reversible_equivariant")
    }
    # invariant d=4: the eleven degree-4 products of the five basis elements
    # (degrees 1,2,2,3,2; the first relation between them lives in degree 6);
    # reversible-equivariant d=1: x1-times-the-constant-generator plus i z_j
    assert table["invariant"] == {0: 1, 1: 1, 2: 4, 3: 5, 4: 11}
    assert table["anti_invariant"] == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
    assert table["reversible_equivariant"] == {0: 1, 1: 4, 2: 9, 3: 19, 4: 36}
