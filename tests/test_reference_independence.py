"""The naive oracle, the orbit slices and the membership checks stay
independent of each other and of the pipeline's kernel.

`tests/reference_oracle.py` cross-checks `oracle.slice_space`; a fault
shared by both would pass unseen.  So the reference may not reach the
orbit path's pieces or an elimination it could share: `linalg.Echelon`,
the term kernel's `Substitution` and `output_columns`, `slice_space`
itself, the orbit sums' `_equivariant_basis`, `_real_parts`,
`_torus_monomials` and `_signed_permutation`, the kept systems'
`_kept_system`, `SystemMemo` and `KEPT_SYSTEMS`, or the sign-flip
filter's `_flip` and `_parity`.  Its polynomial arithmetic is the
reference for the term kernel, so it may not reach that kernel's
arithmetic either: `add_term`, `mul_terms`, `add_output_image`, or the
conversions `terms_of`, `polymap_terms`, `polynomial_from_terms` and
`polymap_from_terms`.  Any import of, or attribute access to, one of
them fails this test.

`oracle.slice_space` certifies what the pipeline transports, so it may
not reach the pipeline's transport kernel or any elimination: no
`Substitution`, `output_columns`, `add_output_image`, `mul_terms`,
`Echelon`, `transfer_T` or `reynolds_R` in its body or in the bodies of
the functions of its module it calls, and a cold call, or a read of
the slice's canonical basis, inserts no `Echelon` row.

`group.membership` and `LinearPart.infinitesimal_ok` are what `certify`
checks the pipeline's output with, so they may not reach the term kernel
that built it either: no `Substitution`, `output_columns`,
`add_output_image`, `mul_terms`, `vectorize_terms` or `Echelon` in their
bodies or in the bodies of the functions of their own module they call.
"""

import ast
from pathlib import Path

from birevnf import oracle
from birevnf.continuous import SymmetryContext
from birevnf.linalg import Echelon
from birevnf.oracle import (
    FUNCTION_KINDS,
    MAP_KINDS,
    SYSTEM_BUDGET,
    SystemMemo,
    slice_space,
)

REFERENCE = Path(__file__).with_name("reference_oracle.py")
PACKAGE = Path(__file__).parents[1] / "src" / "birevnf"

ORBIT_PATH = {
    "Echelon",
    "Substitution",
    "output_columns",
    "slice_space",
    "_equivariant_basis",
    "_real_parts",
    "_torus_monomials",
    "_signed_permutation",
    "_kept_system",
    "SystemMemo",
    "KEPT_SYSTEMS",
    "_flip",
    "_parity",
}

TERM_ARITHMETIC = {
    "add_term",
    "mul_terms",
    "add_output_image",
    "terms_of",
    "polymap_terms",
    "polynomial_from_terms",
    "polymap_from_terms",
}


def forbidden_names_reached(source: str) -> set:
    """The ORBIT_PATH and TERM_ARITHMETIC names that source imports or reads
    as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & (ORBIT_PATH | TERM_ARITHMETIC)


def test_reference_oracle_reaches_no_orbit_path_or_term_kernel():
    assert forbidden_names_reached(REFERENCE.read_text(encoding="utf-8")) == set()


def test_the_scan_sees_imports_and_attributes():
    source = (
        "from birevnf.linalg import Echelon as E\n"
        "import birevnf.oracle as oracle\n"
        "from birevnf import poly\n"
        "oracle._equivariant_basis(None, 0, 'invariant', 1)\n"
        "poly.polynomial_from_terms(4, {})\n"
    )
    assert forbidden_names_reached(source) == {
        "Echelon", "_equivariant_basis", "polynomial_from_terms"
    }


KERNEL = {
    "Substitution",
    "output_columns",
    "add_output_image",
    "mul_terms",
    "vectorize_terms",
    "Echelon",
}


def names_reached(source: str, qualname: str) -> set:
    """The names that the body of qualname reads or imports.

    qualname is a top-level function or "Class.method" of source.  The
    bodies of the top-level functions and of the methods of that class that
    it names are scanned too, transitively, and a name imported under an
    alias counts under its own name.
    """
    tree = ast.parse(source)
    functions, aliases = {}, {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    functions[f"{node.name}.{item.name}"] = item
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name.split(".")[-1]
    owner = qualname.rpartition(".")[0]
    found, todo, seen = set(), [qualname], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                read = node.id
            elif isinstance(node, ast.Attribute):
                read = node.attr
            elif isinstance(node, ast.alias):
                read = node.name.split(".")[-1]
            else:
                continue
            found.add(aliases.get(read, read))
            for callee in (read, f"{owner}.{read}"):
                if callee in functions and callee not in seen:
                    todo.append(callee)
    return found


TRANSPORT_KERNEL = {
    "Substitution",
    "output_columns",
    "add_output_image",
    "mul_terms",
    "Echelon",
    "transfer_T",
    "reynolds_R",
}


def test_the_oracle_slice_reaches_no_kernel(monkeypatch):
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert names_reached(source, "slice_space") & TRANSPORT_KERNEL == set()
    # and at run time: cold slices of each kind, of the full contexts of
    # two linear parts, insert no row into any `Echelon`
    contexts = [
        SymmetryContext.from_case(case, params, signs).full_context()
        for case, params, signs in (
            ("res_n1n2_C3", (1, 2), (1, 1, -1, 1)),
            ("res_double_C4", (1, 2, 1, 3), (1, 1, 1, 1, 1)),
        )
    ]
    inserted = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, r: inserted.append(r) or insert(self, r))
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
    rows = sum(
        slice_space(full, 5, kind).dimension
        for full in contexts
        for kind in FUNCTION_KINDS + MAP_KINDS
    )
    assert oracle.KEPT_SYSTEMS.misses == 8 and rows > 0
    assert inserted == []


def test_an_oracle_slice_reads_its_canonical_basis_off_its_rows(monkeypatch):
    # the orbit sums have pairwise disjoint supports, so reading the
    # canonical basis that `spans_equal` compares inserts no `Echelon` row
    full = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1)).full_context()
    inserted = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, r: inserted.append(r) or insert(self, r))
    canonical = [
        slice_space(full, degree, kind).canonical
        for degree in range(6)
        for kind in FUNCTION_KINDS + MAP_KINDS
    ]
    assert sum(map(len, canonical)) > 0
    assert inserted == []


def test_membership_reaches_no_kernel():
    for module, qualname in (
        ("group.py", "membership"),
        ("continuous.py", "LinearPart.infinitesimal_ok"),
    ):
        source = (PACKAGE / module).read_text(encoding="utf-8")
        assert names_reached(source, qualname) & KERNEL == set(), qualname


def test_the_body_scan_follows_helpers_and_aliases():
    source = (
        "from .poly import Substitution as S\n"
        "from . import linalg\n"
        "def clean(p):\n"
        "    return len(p)\n"
        "def helper(p):\n"
        "    from .linalg import Echelon\n"
        "    return S(p)\n"
        "def checked(p):\n"
        "    return helper(p) and clean(p)\n"
        "class Part:\n"
        "    def ok(self, p):\n"
        "        return self.rows(p)\n"
        "    def rows(self, p):\n"
        "        return linalg.vectorize_terms(p)\n"
    )
    assert names_reached(source, "clean") & KERNEL == set()
    assert names_reached(source, "checked") & KERNEL == {"Substitution", "Echelon"}
    assert names_reached(source, "Part.ok") & KERNEL == {"vectorize_terms"}
