"""Reference generator tables for the shipped resonance case studies.

The per-type generator selections for the single resonance on
R^2 x C^3 / R^2 x C^n and the double resonance on R^2 x C^4 are
reconstructed here from the catalogs so the verification suite can compare
the pipeline output against them span-by-span.

The double-resonance reference list is known to carry defects (one label
appears twice with conflicting values, one entry is missing, and a few
prefactors disagree with what the projection operators actually produce),
so that list is stored verbatim and *compared*, never asserted:
compare_double_resonance_table reports each disagreement between the
stored prefactor and the recomputed one.  The same applies to the
single-resonance table's row C, which circulates in two conflicting
notations; both readings are exposed.

The intermediate sign maps of the tower, sigma_1 on S x| Z2(phi) and the
forgetful sigma-tilde, and the module after the first extension alone are
built here too: only the checks against the tables use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from birevnf.continuous import SymmetryContext, catalog, closure_data, psi_element
from birevnf.errors import UnsupportedCase
from birevnf.group import GroupContext, SignedElement
from birevnf.poly import PolyMap, Polynomial
from birevnf.symmetry_ops import GeneratorSet, _transport, reynolds_S, transfer_T

from conftest import normalize_leading
from reference_oracle import mul_invariant


def phi_context(ctx: SymmetryContext) -> GroupContext:
    """The first extension only: sign map sigma_1 on S x| Z2(phi)."""
    return GroupContext((ctx.phi,), ctx.linear_part)


def sigma_tilde_psi_context(ctx: SymmetryContext) -> GroupContext:
    """phi acting as a symmetry, psi reversing: the forgetful sign map."""
    phi = SignedElement(ctx.phi.rows, 1, ctx.phi.name)
    return GroupContext((phi, ctx.psi), ctx.linear_part)


def intermediate_generators(ctx: SymmetryContext) -> GeneratorSet:
    """Generators after the first extension only (sign map sigma_1)."""
    basis, gens = _transport(*closure_data(ctx.linear_part), ctx.phi)
    return GeneratorSet(basis, gens, ctx)


def projected_generator_list(n1: int, n2: int, n: int) -> tuple[PolyMap, ...]:
    """Generators of the first-extension module for the single resonance.

    This is the 2n+6 element list obtained from the closure-group catalog
    by the first projection: constants and rotation parts indexed as in
    the R^2 x C^n table.
    """
    data = catalog("res_n1n2_Cn", (n1, n2, n))
    old = data.equivariant_generators
    u5 = data.hilbert_basis[4]
    new = [
        old[1],
        mul_invariant(old[0], u5),
        old[3],
        old[5],
        mul_invariant(old[2], u5),
        mul_invariant(old[4], u5),
        old[7],
        old[9],
        mul_invariant(old[6], u5),
        mul_invariant(old[8], u5),
    ]
    for j in range(3, n + 1):
        base = 10 + 2 * (j - 3)
        new.append(old[base + 1])
        new.append(mul_invariant(old[base], u5))
    return tuple(new)


def _type_index_sets(n: int, typ: str):
    evens_tail = list(range(12, 2 * n + 5, 2))
    odds_tail = list(range(13, 2 * n + 6, 2))
    if typ == "A":
        return list(range(2 * n + 6)), [], []
    if typ == "B":
        return [0, 2, 5, 6, 9, 10] + evens_tail, [], [1, 3, 4, 7, 8, 11] + odds_tail
    if typ == "C":
        return list(range(1, 2 * n + 6)), [0], []
    if typ == "D":
        ell = [0, 1, 3, 4, 7, 8, 11] + odds_tail
        return [2, 5, 6, 9, 10] + evens_tail, ell, ell
    raise UnsupportedCase(f"unknown type {typ!r}")


def single_resonance_table(n1: int, n2: int, n: int, typ: str) -> tuple[PolyMap, ...]:
    """Published generator selection for one type of the single resonance.

    Plain entries, x1-multiplied entries, and entries multiplied by the
    real resonant invariant, per the reference table for R^2 x C^n (the
    R^2 x C^3 table is the n = 3 instance).
    """
    data = catalog("res_n1n2_Cn", (n1, n2, n))
    u1 = data.hilbert_basis[0]
    u4 = data.hilbert_basis[3]
    H = projected_generator_list(n1, n2, n)
    plain, by_u1, by_u4 = _type_index_sets(n, typ)
    gens = [H[k] for k in plain]
    gens += [mul_invariant(H[k], u1) for k in by_u1]
    gens += [mul_invariant(H[k], u4) for k in by_u4]
    return tuple(gens)


def table1_generators(n1: int, n2: int, typ: str) -> tuple[PolyMap, ...]:
    """The R^2 x C^3 table (row C in its running-text reading)."""
    return single_resonance_table(n1, n2, 3, typ)


def table1_type_c_h_reading(n1: int, n2: int) -> tuple[PolyMap, ...]:
    """Row C in its alternate notation: unprojected closure-group generators.

    This reading fails reversible-equivariance and is exposed so the
    verifier can report which of the two circulating readings matches.
    """
    data = catalog("res_n1n2_C3", (n1, n2))
    H = data.equivariant_generators
    u1 = data.hilbert_basis[0]
    return (mul_invariant(H[0], u1),) + tuple(H[1:])


# -- double resonance on R^2 x C^4 -------------------------------------------

# index classes of the double-resonance reference list
_CLASS_OF_PLAIN = {1: "1", 3: "i", 7: "i", 11: "i", 15: "i", 5: "k", 9: "k", 13: "l", 17: "l"}
_CLASS_OF_EVEN = {0: "j", 2: "j", 6: "j", 10: "j", 14: "j", 4: "r", 8: "r", 12: "s", 16: "s"}


@dataclass(frozen=True)
class DoubleResonanceEntry:
    label: str
    coefficient: str  # "1", "v1", "v4", "v7", "v8"
    generator: str  # "H3", "u5H0", "u9H16", ...
    value: PolyMap  # exact projection output; zero map when projected away


def double_resonance_step_generators(
    n1: int, n2: int, m1: int, m2: int
) -> tuple[tuple[str, PolyMap], ...]:
    """Named generators of the first-extension module for the double resonance."""
    data = catalog("res_double_C4", (n1, n2, m1, m2))
    H = data.equivariant_generators
    u5 = data.hilbert_basis[4]
    u9 = data.hilbert_basis[8]
    named: list[tuple[str, PolyMap]] = []
    for i in (1, 3, 5, 7, 9, 11, 13, 15, 17):
        named.append((f"H{i}", H[i]))
    for j in (0, 2, 4, 6, 8, 10, 12, 14, 16):
        named.append((f"u5H{j}", mul_invariant(H[j], u5)))
    for j in (0, 2, 4, 6, 8, 10, 12, 14, 16):
        named.append((f"u9H{j}", mul_invariant(H[j], u9)))
    return tuple(named)


def double_resonance_coefficients(
    n1: int, n2: int, m1: int, m2: int
) -> tuple[tuple[str, Polynomial | None], ...]:
    """The surviving module coefficients (v-labels) of the second extension."""
    data = catalog("res_double_C4", (n1, n2, m1, m2))
    u = data.hilbert_basis
    v1 = u[0]
    v4 = u[3]
    v7 = u[7]
    v8 = u[4] * u[8]  # product of the two imaginary resonant invariants
    return (("1", None), ("v1", v1), ("v4", v4), ("v7", v7), ("v8", v8))


def recompute_double_resonance(
    signs: Sequence[int], n1: int, n2: int, m1: int, m2: int
) -> tuple[DoubleResonanceEntry, ...]:
    """Projection outputs for every (coefficient, generator) pair.

    This is the engine's own version of the double-resonance reference list:
    the second-extension projection applied to each coefficient-generator
    product, zeros retained so comparisons can see what was projected away.
    """
    psi = psi_element(signs)
    entries = []
    for coeff_name, coeff in double_resonance_coefficients(n1, n2, m1, m2):
        if coeff is None:
            scaled = None
        else:
            scaled = reynolds_S(coeff, psi)
        for gen_name, gen in double_resonance_step_generators(n1, n2, m1, m2):
            if coeff is None:
                product = gen
            elif not scaled:
                product = None
            else:
                product = mul_invariant(gen, scaled)
            if product is None:
                image = PolyMap.zero(4)
            else:
                image = transfer_T(product, psi)
                if image:
                    image = normalize_leading(image)
            label = f"J[{coeff_name}]{gen_name}"
            entries.append(DoubleResonanceEntry(label, coeff_name, gen_name, image))
    return tuple(entries)


# the reference prefactor table, stored with its known defects: keys are
# (coefficient label, index class); values map (a0, P, Q) to the stored
# constant, with P and Q the sign twists of the two resonant invariants.
# The (v4, 9r) key occurs twice with conflicting values, and (v4, 9s) is
# absent; both facts are preserved here on purpose.
_REFERENCE_DOUBLE_TABLE: dict[tuple[str, str], tuple[Callable[[int, int, int], int], ...]] = {
    ("1", "1"): (lambda a0, P, Q: 1 + a0,),
    ("1", "i"): (lambda a0, P, Q: 1,),
    ("1", "k"): (lambda a0, P, Q: 1 + P,),
    ("1", "l"): (lambda a0, P, Q: 1 + Q,),
    ("v1", "1"): (lambda a0, P, Q: 1 - a0,),
    ("v1", "i"): (lambda a0, P, Q: 0,),
    ("v1", "k"): (lambda a0, P, Q: (1 - a0) * (1 - P),),
    ("v1", "l"): (lambda a0, P, Q: (1 - a0) * (1 - Q),),
    ("v4", "1"): (lambda a0, P, Q: (1 - a0) * (1 - P),),
    ("v4", "i"): (lambda a0, P, Q: 0,),
    ("v4", "k"): (lambda a0, P, Q: 1 - P,),
    ("v4", "l"): (lambda a0, P, Q: (1 - P) * (1 - Q),),
    ("v7", "1"): (lambda a0, P, Q: (1 - a0) * (1 - Q),),
    ("v7", "i"): (lambda a0, P, Q: 0,),
    ("v7", "k"): (lambda a0, P, Q: (1 - P) * (1 - Q),),
    ("v7", "l"): (lambda a0, P, Q: 1 - Q,),
    ("v8", "1"): (lambda a0, P, Q: (1 - a0) * (1 - P * Q),),
    ("v8", "i"): (lambda a0, P, Q: 0,),
    ("v8", "k"): (lambda a0, P, Q: (1 - P) * (1 - P * Q),),
    ("v8", "l"): (lambda a0, P, Q: (1 - Q) * (1 - P * Q),),
    ("1", "5j"): (lambda a0, P, Q: 1 + P,),
    ("1", "5r"): (lambda a0, P, Q: 1,),
    ("1", "5s"): (lambda a0, P, Q: 1 + P * Q,),
    ("v1", "5j"): (lambda a0, P, Q: (1 - a0) * (1 + P),),
    ("v1", "5r"): (lambda a0, P, Q: 1 - a0,),
    ("v1", "5s"): (lambda a0, P, Q: (1 - a0) * (1 + P * Q),),
    ("v4", "5j"): (lambda a0, P, Q: 1 - P,),
    ("v4", "5r"): (lambda a0, P, Q: 0,),
    ("v4", "5s"): (lambda a0, P, Q: (1 - P) * (1 - P * Q),),
    ("v7", "5j"): (lambda a0, P, Q: (1 - P) * (1 - Q),),
    ("v7", "5r"): (lambda a0, P, Q: 0,),
    ("v7", "5s"): (lambda a0, P, Q: (1 - Q) * (1 - P * Q),),
    ("v8", "5j"): (lambda a0, P, Q: (1 - P) * (1 - P * Q),),
    ("v8", "5r"): (lambda a0, P, Q: 0,),
    ("v8", "5s"): (lambda a0, P, Q: 1 - P * Q,),
    ("1", "9j"): (lambda a0, P, Q: 1 + Q,),
    ("1", "9s"): (lambda a0, P, Q: 1,),
    ("1", "9r"): (lambda a0, P, Q: 1 + P * Q,),
    ("v1", "9j"): (lambda a0, P, Q: (1 - a0) * (1 + Q),),
    ("v1", "9r"): (lambda a0, P, Q: (1 - a0) * (1 + P * Q),),
    ("v1", "9s"): (lambda a0, P, Q: 1 - a0,),
    ("v4", "9j"): (lambda a0, P, Q: 1 - Q,),
    ("v4", "9r"): (lambda a0, P, Q: 1 - P * Q, lambda a0, P, Q: 0),
    ("v7", "9j"): (lambda a0, P, Q: 1 - Q,),
    ("v7", "9r"): (lambda a0, P, Q: (1 - Q) * (1 - P * Q),),
    ("v7", "9s"): (lambda a0, P, Q: 0,),
    ("v8", "9j"): (lambda a0, P, Q: (1 - Q) * (1 - P * Q),),
    ("v8", "9r"): (lambda a0, P, Q: 1 - P * Q,),
    ("v8", "9s"): (lambda a0, P, Q: 0,),
}


def _entry_class(generator: str) -> str:
    if generator.startswith("u5H"):
        return "5" + _CLASS_OF_EVEN[int(generator[3:])]
    if generator.startswith("u9H"):
        return "9" + _CLASS_OF_EVEN[int(generator[3:])]
    return _CLASS_OF_PLAIN[int(generator[1:])]


def compare_double_resonance_table(
    signs: Sequence[int], n1: int, n2: int, m1: int, m2: int
) -> list[str]:
    """Disagreements between the recomputed list and the reference table.

    Returns human-readable records: duplicated reference labels, entries
    the reference table omits, and stored prefactors whose vanishing
    pattern contradicts the recomputed projection at these signs.
    """
    a0 = signs[0]
    P = signs[1] ** n2 * signs[2] ** n1
    Q = signs[3] ** m2 * signs[4] ** m1
    notes: list[str] = []
    duplicated = sorted(
        key for key, formulas in _REFERENCE_DOUBLE_TABLE.items() if len(formulas) > 1
    )
    for coeff, cls in duplicated:
        notes.append(
            f"reference table lists ({coeff}, class {cls}) twice with conflicting values"
        )
    for entry in recompute_double_resonance(signs, n1, n2, m1, m2):
        cls = _entry_class(entry.generator)
        stored = _REFERENCE_DOUBLE_TABLE.get((entry.coefficient, cls))
        recomputed_nonzero = bool(entry.value)
        if stored is None:
            if recomputed_nonzero:
                notes.append(
                    f"{entry.label}: nonzero projection missing from the reference table"
                )
            continue
        stored_nonzero = {bool(f(a0, P, Q)) for f in stored}
        if len(stored_nonzero) > 1:
            continue  # already reported as duplicated
        if stored_nonzero != {recomputed_nonzero}:
            state = "nonzero" if recomputed_nonzero else "zero"
            notes.append(
                f"{entry.label} (class {cls}): recomputed projection is {state} "
                f"but the stored prefactor says otherwise at signs a0={a0}, "
                f"twists P={P}, Q={Q}"
            )
    return notes

