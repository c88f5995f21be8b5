"""The naive oracle stays independent of the compiled slice path.

`tests/reference_oracle.py` cross-checks `oracle.slice_space`; a fault
shared by both would pass unseen.  So the reference may not reach the
compiled path's assembly or elimination: `linalg.Echelon`, the term
kernel's `Substitution` and `output_columns`, `slice_space` itself, or
the compiled system's `_parameters`, `_shear_rows`, `_group_rows`,
`_emit`, `_live_system`, `_solution_row` and `_torus_monomials`.  Any
import of, or attribute access to, one of them fails this test.
"""

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference_oracle.py")

COMPILED_PATH = {
    "Echelon",
    "Substitution",
    "output_columns",
    "slice_space",
    "_parameters",
    "_shear_rows",
    "_group_rows",
    "_emit",
    "_live_system",
    "_solution_row",
    "_torus_monomials",
}


def compiled_names_reached(source: str) -> set:
    """The COMPILED_PATH names that source imports or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & COMPILED_PATH


def test_reference_oracle_reaches_no_compiled_path():
    assert compiled_names_reached(REFERENCE.read_text(encoding="utf-8")) == set()


def test_the_scan_sees_imports_and_attributes():
    source = (
        "from birevnf.linalg import Echelon as E\n"
        "import birevnf.oracle as oracle\n"
        "oracle._group_rows(None, 'invariant', [], [])\n"
    )
    assert compiled_names_reached(source) == {"Echelon", "_group_rows"}
