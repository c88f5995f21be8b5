"""Assembly and rendering of truncated formal normal forms.

A certified generator set determines the normal form: the vector field is
the fixed linear part plus, for each module generator G_j, a term f_j(X)G_j
with f_j an arbitrary formal function of the Hilbert-basis invariants X.
Truncation at degree_max is bookkeeping for certification only; the f_j
stay formal.  Generators are ordered by the first coordinate component
they touch (x1, x2, z1, ..., zn) and the f-indices are renumbered
canonically in that order.

The text and LaTeX emitters build each right-hand side with one function
over the `poly.Notation` table (the linear term, then each generator
component times f_k(X), a factor bracketed when it has several terms or a
leading minus sign); they differ only in names and in how they lay out
lines.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .continuous import LinearPart
from .errors import ConfigError, UncertifiedInput
from .poly import (
    LATEX,
    TEXT,
    Notation,
    PolyMap,
    Polynomial,
    render_polymap,
    render_polynomial,
    render_tuple,
)
from .symmetry_ops import GeneratorSet


class NormalFormTerm(NamedTuple):
    f_index: int
    generator: PolyMap


class NormalForm(NamedTuple):
    """Linear part plus formal invariant-coefficient generator terms."""

    linear_part: LinearPart
    degree_max: int
    argument_list: tuple[Polynomial, ...]
    terms: tuple[NormalFormTerm, ...]

    @property
    def nblocks(self) -> int:
        return self.linear_part.n


def assemble(genset: GeneratorSet, linear_part: LinearPart, degree_max: int) -> NormalForm:
    """Normal form from a certified generator set, truncated at degree_max."""
    if degree_max < 2:
        raise ConfigError("degree_max must be at least 2")
    if not genset.certified:
        raise UncertifiedInput(
            "generator set lacks soundness certification; run the pipeline first"
        )
    ordered = sorted(
        genset.module_generators,
        key=lambda g: (_leading_component(g), g.sort_key()),
    )
    terms = tuple(NormalFormTerm(i, g) for i, g in enumerate(ordered))
    return NormalForm(
        linear_part=linear_part,
        degree_max=degree_max,
        argument_list=tuple(genset.ring_basis),
        terms=terms,
    )


def _leading_component(g: PolyMap) -> int:
    for i, comp in enumerate((*g.x_components, *g.z_components)):
        if comp:
            return i
    return g.nblocks + 2


# -- rendering ----------------------------------------------------------------


def _right_hand_sides(
    nf: NormalForm, notation: Notation, linear: list[str], times: str
) -> list[str]:
    """Each component's linear term plus its generator components times f_k(X).

    A factor with several terms or a leading minus sign is bracketed; `times`
    joins a factor to its f_k(X).
    """
    # each term's components and its f_k(X), built once for every component
    columns = [
        ((*t.generator.x_components, *t.generator.z_components),
         notation.subscript.format("f", t.f_index) + "(X)")
        for t in nf.terms
    ]
    rows = []
    for comp, linear_term in enumerate(linear):
        pieces = [linear_term] if linear_term else []
        for comps, function in columns:
            comp_poly = comps[comp]
            if not comp_poly:
                continue
            factor = render_polynomial(comp_poly, notation)
            # only the constant 1 renders as "1"
            if factor == "1":
                pieces.append(function)
                continue
            if len(comp_poly) > 1 or factor.startswith("-"):
                factor = notation.bracket(factor)
            pieces.append(f"{factor}{times}{function}")
        rows.append(" + ".join(pieces) if pieces else "0")
    return rows


def emit_text(nf: NormalForm) -> str:
    if not nf.terms:
        return "xdot = L x"
    blocks = range(1, nf.nblocks + 1)
    linear = ["x2", "", *(f"-i*omega{j}*z{j}" for j in blocks)]
    names = ["x1", "x2", *(f"z{j}" for j in blocks)]
    rhs = _right_hand_sides(nf, TEXT, linear, "*")
    lines = [f"{name}' = {row}" for name, row in zip(names, rhs)]
    lines.append(f"X = {render_tuple(nf.argument_list)}")
    lines.append(f"truncation degree = {nf.degree_max}")
    return "\n".join(lines)


def emit_latex(nf: NormalForm) -> str:
    if not nf.terms:
        return "\\begin{align*}\n\\dot{x} &= Lx\n\\end{align*}"
    blocks = range(1, nf.nblocks + 1)
    linear = ["x_2", "", *(f"-i\\omega_{{{j}}}z_{{{j}}}" for j in blocks)]
    names = ["\\dot{x}_1", "\\dot{x}_2", *(f"\\dot{{z}}_{{{j}}}" for j in blocks)]
    rhs = _right_hand_sides(nf, LATEX, linear, "\\, ")
    rows = " \\\\\n".join(f"{name} &= {row}" for name, row in zip(names, rhs))
    args = render_tuple(nf.argument_list, LATEX)
    return f"\\begin{{align*}}\n{rows}\n\\end{{align*}}\n\\[ X = {args} \\]"


def emit_json(nf: NormalForm) -> str:
    payload = {
        "schema": "nf-v1",
        "nblocks": nf.nblocks,
        "omegas": [f"omega{j}" for j in range(1, nf.nblocks + 1)],
        "resonance_relations": [list(r) for r in nf.linear_part.resonance_relations],
        "degree_max": nf.degree_max,
        "arguments": [render_polynomial(p) for p in nf.argument_list],
        "terms": [
            {"f": t.f_index, "generator": render_polymap(t.generator)} for t in nf.terms
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_EMITTERS = {"text": emit_text, "latex": emit_latex, "json": emit_json}


def emit(nf: NormalForm, fmt: str) -> str:
    if fmt not in _EMITTERS:
        raise ConfigError(f"unknown output format {fmt!r}")
    return _EMITTERS[fmt](nf)
