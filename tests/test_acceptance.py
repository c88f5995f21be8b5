"""Acceptance suite: one test per criterion, exact assertions throughout.

Each test prints an `ACCEPTANCE <k> PASS/FAIL (<seconds>)` line (visible
with `pytest -s` or in the captured-output section of `pytest -rA`).
Every comparison is exact rational arithmetic; there are no tolerances.
"""

import time
from contextlib import contextmanager

from birevnf.continuous import (
    LinearPart,
    SymmetryContext,
    catalog,
    classify_type,
    closure_data,
    enumerate_involution_pairs,
    fix_dimension,
    phi_element,
    psi_element,
)
from birevnf.group import GroupContext, anticommute_check, membership
from birevnf.normalform import assemble
from birevnf.oracle import module_slice, slice_space, spans_equal
from birevnf.poly import I, PolyMap, Polynomial
from birevnf.symmetry_ops import (
    GeneratorSet,
    pipeline,
    reynolds_R,
    reynolds_S,
    transfer_T,
)

from conftest import (
    dense,
    make_rng,
    mat_mul,
    normalize_leading,
    random_polymap,
    random_polynomial,
    random_real_polynomial,
)
from reference_oracle import add, mul, mul_invariant, scale
from references import (
    compare_double_resonance_table,
    recompute_double_resonance,
    single_resonance_table,
    table1_generators,
    table1_type_c_h_reading,
)


@contextmanager
def criterion(num: int, description: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL ({time.time() - t0:.1f}s): {description}")
        raise
    print(f"ACCEPTANCE {num} PASS ({time.time() - t0:.1f}s): {description}")


def _sample_stream(total: int):
    """Deterministic mix of real functions and mappings over n in {1, 2, 3}."""
    rng = make_rng(101)
    for k in range(total):
        n = 1 + (k % 3)
        if k % 2 == 0:
            yield n, random_real_polynomial(rng, n, max_degree=6, terms=4)
        else:
            yield n, random_polymap(rng, n, max_degree=6, terms=2)


def test_criterion_1_operator_laws():
    with criterion(1, "R, S, T idempotent; R + S = id; T module homomorphism"):
        kappas = {
            n: (phi_element(n), psi_element((-1,) + (1,) * (n - 1) + (-1,)))
            for n in (1, 2, 3)
        }
        invariants = {n: catalog("non_resonant", (n,)).hilbert_basis for n in (1, 2, 3)}
        count = 0
        for n, sample in _sample_stream(500):
            kappa = kappas[n][count % 2]
            if isinstance(sample, Polynomial):
                r = reynolds_R(sample, kappa)
                s = reynolds_S(sample, kappa)
                assert add(r, s) == sample
                assert reynolds_R(r, kappa) == r
                assert reynolds_S(s, kappa) == s
            else:
                t = transfer_T(sample, kappa)
                assert transfer_T(t, kappa) == t
                h = invariants[n][count % (n + 1)]
                assert transfer_T(mul_invariant(sample, h), kappa) == mul_invariant(t, h)
            count += 1
        assert count == 500


def test_criterion_2_decomposition_identities():
    with criterion(2, "R image invariant, S image anti-invariant for sigma-tilde"):
        # the same sample stream as criterion 1: function samples decompose
        # into an invariant and an anti-invariant part for the extension
        kappas = {n: phi_element(n) for n in (1, 2, 3)}
        contexts = {n: GroupContext((kappas[n],)) for n in (1, 2, 3)}
        for n, sample in _sample_stream(500):
            if not isinstance(sample, Polynomial):
                continue
            kappa, finite = kappas[n], contexts[n]
            assert membership(reynolds_R(sample, kappa), finite, "invariant")
            assert membership(reynolds_S(sample, kappa), finite, "anti_invariant")
        # closure-group invariant samples: the full sigma-tilde statement,
        # continuous conditions included
        for n in (1, 2, 3):
            kappa = kappas[n]
            linear = LinearPart(n)
            full = GroupContext((kappa,), linear)
            basis = closure_data(linear).hilbert_basis
            for k in range(15):
                f = mul(basis[k % len(basis)], basis[(k + 1) % len(basis)])
                if k % 3 == 0:
                    f = add(f, basis[k % len(basis)])
                assert membership(reynolds_R(f, kappa), full, "invariant")
                assert membership(reynolds_S(f, kappa), full, "anti_invariant")


def test_criterion_3_non_resonant_reproduction():
    with criterion(3, "non-resonant generators match the closed form, slices match oracle"):
        for n in (1, 2, 3):
            gens_catalog = catalog("non_resonant", (n,)).equivariant_generators
            L = [gens_catalog[2 * j + 1] for j in range(n + 1)]
            x1 = Polynomial.variable(2 * n + 2, 0)
            for a0 in (1, -1):
                ctx = SymmetryContext.from_case(
                    "non_resonant", (n,), (a0,) + (1,) * n
                )
                gs = pipeline(ctx)
                if a0 == 1:
                    expected = set(L)
                else:
                    expected = {mul_invariant(L[0], x1), *L[1:]}
                assert set(gs.module_generators) == expected, (n, a0)
                full = ctx.full_context()
                for d in range(2, 7):
                    oracle = slice_space(full, d, "reversible_equivariant")
                    module = module_slice(gs, d)
                    assert spans_equal(oracle, module).equal, (n, a0, d)


SIGNS_BY_TYPE = {
    "A": (1, 1, 1, 1),
    "B": (1, 1, -1, 1),
    "C": (-1, 1, 1, 1),
    "D": (-1, 1, -1, 1),
}


def test_criterion_4_table_one_reproduction(c3_contexts, c3_gensets):
    with criterion(4, "single resonance on three blocks: all four sign regimes"):
        for typ, ctx in c3_contexts.items():
            gs = c3_gensets[typ]
            table = GeneratorSet(
                gs.ring_basis,
                tuple(normalize_leading(g) for g in table1_generators(1, 2, typ)),
                ctx,
            )
            full = ctx.full_context()
            for d in range(2, 7):
                oracle = slice_space(full, d, "reversible_equivariant")
                ours = module_slice(gs, d)
                theirs = module_slice(table, d)
                assert spans_equal(oracle, ours).equal, (typ, d)
                assert spans_equal(oracle, theirs).equal, (typ, d)
        # row C circulates in two notations; report which reading matches
        ctx = c3_contexts["C"]
        full = ctx.full_context()
        projected_reading = table1_generators(1, 2, "C")
        raw_reading = table1_type_c_h_reading(1, 2)
        assert all(
            membership(g, full, "reversible_equivariant") for g in projected_reading
        )
        raw_ok = all(
            membership(g, full, "reversible_equivariant") for g in raw_reading
        )
        assert not raw_ok
        print(
            "criterion 4 note: row C resolved - the projected-generator reading "
            "matches; the unprojected reading fails reversible-equivariance"
        )


TABLE2_ROWS = [
    (1, 1, 1, (1, 2), "A"),
    (1, 1, 1, (2, 1), "A"),
    (1, -1, -1, (2, 2), "A"),
    (1, -1, -1, (1, 3), "A"),
    (1, -1, -1, (1, 2), "B"),
    (1, 1, -1, (2, 3), "A"),
    (1, 1, -1, (1, 2), "B"),
    (1, -1, 1, (3, 2), "A"),
    (1, -1, 1, (2, 1), "B"),
    (-1, 1, 1, (1, 2), "C"),
    (-1, -1, -1, (2, 2), "C"),
    (-1, -1, -1, (1, 2), "D"),
    (-1, 1, -1, (2, 3), "C"),
    (-1, 1, -1, (1, 2), "D"),
    (-1, -1, 1, (3, 2), "C"),
    (-1, -1, 1, (2, 1), "D"),
]


def test_criterion_5_type_table():
    with criterion(5, "type classification agrees with all sixteen sub-cases"):
        assert len(TABLE2_ROWS) == 16
        for a0, a1, a2, exponents, expected in TABLE2_ROWS:
            assert classify_type((a0, a1, a2), exponents) == expected


def test_criterion_6_table_three_reproduction():
    with criterion(6, "single resonance on four blocks: table lists certified"):
        for typ, signs3 in SIGNS_BY_TYPE.items():
            signs = signs3 + (1,)
            ctx = SymmetryContext.from_case("res_n1n2_Cn", (1, 2, 4), signs)
            gs = pipeline(ctx)
            table = tuple(
                normalize_leading(g) for g in single_resonance_table(1, 2, 4, typ)
            )
            full = ctx.full_context()
            for g in table:
                assert membership(g, full, "reversible_equivariant"), typ
            table_gs = GeneratorSet(gs.ring_basis, table, ctx)
            for d in range(2, 6):
                ours = module_slice(gs, d)
                theirs = module_slice(table_gs, d)
                assert spans_equal(ours, theirs).equal, (typ, d)


def test_criterion_7_double_resonance():
    with criterion(7, "double resonance: projections certified, typos reported"):
        regimes = [
            (1, 1, 1, 1, 1),
            (1, 1, -1, 1, -1),
            (-1, 1, -1, 1, 1),
        ]
        saw_duplicate_note = False
        for signs in regimes:
            ctx = SymmetryContext.from_case("res_double_C4", (1, 2, 1, 2), signs)
            full = ctx.full_context()
            entries = recompute_double_resonance(signs, 1, 2, 1, 2)
            for entry in entries:
                if entry.value:
                    assert membership(
                        entry.value, full, "reversible_equivariant"
                    ), entry.label
            gs = pipeline(ctx)
            for d in range(2, 5):
                oracle = slice_space(full, d, "reversible_equivariant")
                module = module_slice(gs, d)
                assert spans_equal(oracle, module).equal, (signs, d)
            notes = compare_double_resonance_table(signs, 1, 2, 1, 2)
            assert notes, "the reference table's known defects must be reported"
            if any("twice" in note for note in notes):
                saw_duplicate_note = True
            print(f"criterion 7 note: signs {signs} -> {len(notes)} discrepancies reported")
        assert saw_duplicate_note


def test_criterion_8_involution_characterization():
    with criterion(8, "involution pairs: count, anti-commutation, fixed spaces"):
        for n in range(1, 6):
            linear = LinearPart(n)
            pairs = enumerate_involution_pairs(linear)
            assert len(pairs) == 2 ** n
            assert len({p.signs for p in pairs}) == 2 ** n
            for pair in pairs:
                assert anticommute_check(pair.phi, linear)
                assert anticommute_check(pair.psi, linear)
                assert mat_mul(dense(pair.phi), dense(pair.psi)) == mat_mul(
                    dense(pair.psi), dense(pair.phi)
                )
                assert fix_dimension(pair.phi) == n + 1
                assert fix_dimension(pair.psi) == n + 1


def test_criterion_9_normal_form_structure():
    with criterion(9, "non-resonant normal form reproduces the reversible system"):
        n = 3
        ctx = SymmetryContext.from_case("non_resonant", (n,), (1,) * (n + 1))
        gs = pipeline(ctx)
        nf = assemble(gs, ctx.linear_part, 4)
        nvars = 2 * n + 2
        zero = Polynomial.zero(nvars)
        # summand multiplicands: the constant field on x2, then i z_j per block
        expected = [
            PolyMap((zero, Polynomial.constant(nvars, 1)), (zero,) * n)
        ]
        for j in range(1, n + 1):
            zs = [zero] * n
            zs[j - 1] = scale(Polynomial.variable(nvars, 2 * j), I)
            expected.append(PolyMap((zero, zero), tuple(zs)))
        assert [t.generator for t in nf.terms] == expected
        assert [t.f_index for t in nf.terms] == list(range(n + 1))
        # invariant argument list: x1 then the block norms, in block order
        args = [str(p) for p in nf.argument_list]
        assert args == ["x1", "z1*zb1", "z2*zb2", "z3*zb3"]
        full = ctx.full_context()
        for term in nf.terms:
            for u in nf.argument_list:
                summand = mul_invariant(term.generator, u)
                assert membership(summand, full, "reversible_equivariant")
