"""The package's value classes: equality, hashing and immutability.

The records (NamedTuples) and the classes that check or cache on
construction (each a `poly.Frozen`) are frozen values: equal values compare
and hash equal, a field left out of equality does not change it, and no
field can be assigned after construction.
"""

import pytest

from birevnf.continuous import LinearPart, SymmetryContext, phi_element, phi_rows
from birevnf.group import GroupContext, SignedElement
from birevnf.normalform import NormalForm, NormalFormTerm, assemble
from birevnf.oracle import DegreeSlice, SpanComparison, slice_space
from birevnf.poly import TEXT, Notation
from birevnf.symmetry_ops import GeneratorSet, pipeline

LINEAR = LinearPart(3, ((-2, 1, 0),))
SIGNS = (1, 1, -1, 1)


def _context() -> SymmetryContext:
    return SymmetryContext.build(LINEAR, SIGNS)


def _slice(reduced: bool = False) -> DegreeSlice:
    span = slice_space(_context().full_context(), 3, "reversible_equivariant")
    return DegreeSlice(span.degree, span.kind, span.rows, span.nvars, reduced)


NOTATION_FIELDS = (
    "fraction", "imaginary", "x", "zbar", "subscript", "power", "times", "left", "right",
    "separator",
)

# class -> (a maker of one value, afresh on each call; its fields; values
# equal to it that differ only in a field that equality does not read)
VALUES = {
    Notation: (
        lambda: Notation(*(getattr(TEXT, name) for name in NOTATION_FIELDS)),
        NOTATION_FIELDS,
        (),
    ),
    GroupContext: (lambda: _context().full_context(), ("elements", "continuous"), ()),
    NormalFormTerm: (
        lambda: NormalFormTerm(0, pipeline(_context()).module_generators[0]),
        ("f_index", "generator"),
        (),
    ),
    NormalForm: (
        lambda: assemble(pipeline(_context()), LINEAR, 4),
        ("linear_part", "degree_max", "argument_list", "terms"),
        (),
    ),
    SpanComparison: (lambda: SpanComparison(True), ("equal", "witness", "missing_from"), ()),
    SignedElement: (
        lambda: SignedElement(phi_rows(3), -1, "phi"),
        ("rows", "sign", "name", "action"),
        (lambda: SignedElement(phi_rows(3), -1, "other"),),
    ),
    LinearPart: (
        lambda: LinearPart(3, ((-2, 1, 0),)),
        ("n", "resonance_relations"),
        # the same weight lattice, spelled otherwise
        (lambda: LinearPart(3, ((4, -2, 0),)),),
    ),
    SymmetryContext: (_context, ("linear_part", "signs", "phi", "psi"), ()),
    DegreeSlice: (
        _slice,
        ("degree", "kind", "rows", "nvars", "reduced"),
        (lambda: _slice(reduced=True),),
    ),
    GeneratorSet: (
        lambda: pipeline(_context()),
        ("ring_basis", "module_generators", "context", "certified"),
        (),
    ),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_values_compare_by_value_and_are_frozen(cls):
    make, fields, same_value = VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b and a == b
    if cls is DegreeSlice:
        # its rows are `linalg.vectorize` dicts, so a slice has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for other in same_value:
        c = other()
        assert c == a and (cls is DegreeSlice or hash(c) == hash(a))
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name, None))
    assert a == b


def test_a_value_differs_in_a_compared_field():
    # equality reads the sign and the weight lattice, and a slice's rows
    phi = phi_element(3)
    assert SignedElement(phi.rows, 1, phi.name) != phi
    assert LinearPart(3, ((-2, 1, 0),)) != LinearPart(3, ((-3, 1, 0),))
    span = _slice()
    assert DegreeSlice(span.degree, span.kind, span.rows[:-1], span.nvars) != span
