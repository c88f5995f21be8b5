"""Normal-form assembly, structure checks, and the three emitters."""

import pytest

from birevnf.continuous import SymmetryContext
from birevnf.errors import ConfigError, UncertifiedInput
from birevnf.group import membership
from birevnf.normalform import assemble, emit
from birevnf.poly import I, PolyMap, Polynomial, render_polynomial
from birevnf.symmetry_ops import GeneratorSet, pipeline

from reference_oracle import mul_invariant


@pytest.fixture(scope="module")
def nonres3_plus():
    ctx = SymmetryContext.from_case("non_resonant", (3,), (1, 1, 1, 1))
    return ctx, pipeline(ctx)


def test_nonresonant_reversible_normal_form_structure(nonres3_plus):
    # x2' = f0(X), z_j' = -i w_j z_j + i z_j f_j(X), X = (x1, |z_1|^2, ...)
    ctx, gs = nonres3_plus
    nf = assemble(gs, ctx.linear_part, 4)
    n = 3
    nvars = 2 * n + 2
    zero = Polynomial.zero(nvars)
    assert len(nf.terms) == n + 1
    const_gen = PolyMap((zero, Polynomial.constant(nvars, 1)), (zero,) * n)
    assert nf.terms[0].generator == const_gen
    assert nf.terms[0].f_index == 0
    for j in range(1, n + 1):
        zs = [zero] * n
        zs[j - 1] = Polynomial.variable(nvars, 2 * j).scale(I)
        assert nf.terms[j].generator == PolyMap((zero, zero), tuple(zs))
        assert nf.terms[j].f_index == j
    args = [render_polynomial(p) for p in nf.argument_list]
    assert args == ["x1", "z1*zb1", "z2*zb2", "z3*zb3"]


def test_nonresonant_odd_case_gets_x1_factor():
    ctx = SymmetryContext.from_case("non_resonant", (2,), (-1, 1, 1))
    nf = assemble(pipeline(ctx), ctx.linear_part, 4)
    text = emit(nf, "text")
    assert "x2' = x1*f0(X)" in text
    assert "X = (x1^2, z1*zb1, z2*zb2)" in text


def test_empty_normal_form_text():
    ctx = SymmetryContext.from_case("non_resonant", (1,), (1, 1))
    empty = GeneratorSet(pipeline(ctx).ring_basis, (), ctx, certified=True)
    nf = assemble(empty, ctx.linear_part, 2)
    assert emit(nf, "text") == "xdot = L x"


def test_summand_instances_are_reversible_equivariant(nonres3_plus):
    ctx, gs = nonres3_plus
    nf = assemble(gs, ctx.linear_part, 4)
    full = ctx.full_context()
    for term in nf.terms:
        for u in nf.argument_list:
            summand = mul_invariant(term.generator, u)
            assert membership(summand, full, "reversible_equivariant")


def test_resonant_round_trip_and_structure(c3_gensets, c3_contexts):
    ctx = c3_contexts["D"]
    nf = assemble(c3_gensets["D"], ctx.linear_part, 4)
    text = emit(nf, "text")
    assert text == emit(assemble(c3_gensets["D"], ctx.linear_part, 4), "text")


def test_latex_renders_deterministically_and_balanced(nonres3_plus):
    ctx, gs = nonres3_plus
    nf = assemble(gs, ctx.linear_part, 4)
    one = emit(nf, "latex")
    two = emit(nf, "latex")
    assert one == two
    assert one.count("\\begin{align*}") == one.count("\\end{align*}") == 1
    assert one.count("{") == one.count("}")


def test_uncertified_input_rejected(nonres3_plus):
    ctx, gs = nonres3_plus
    raw = GeneratorSet(gs.ring_basis, gs.module_generators, ctx)
    with pytest.raises(UncertifiedInput):
        assemble(raw, ctx.linear_part, 4)


def test_degree_max_validated(nonres3_plus):
    ctx, gs = nonres3_plus
    with pytest.raises(ConfigError):
        assemble(gs, ctx.linear_part, 1)


def test_unknown_format_rejected(nonres3_plus):
    ctx, gs = nonres3_plus
    nf = assemble(gs, ctx.linear_part, 4)
    with pytest.raises(ConfigError):
        emit(nf, "pdf")
