import random
from fractions import Fraction

import pytest
from hypothesis import settings

from birevnf import oracle
from birevnf.continuous import SymmetryContext, _case_context
from birevnf.errors import SignInconsistency
from birevnf.group import SignedElement
from birevnf.linalg import vectorize
from birevnf.oracle import DegreeSlice
from birevnf.poly import I, ONE, ZERO, GaussianRational, PolyMap, Polynomial
from birevnf.symmetry_ops import pipeline, transported

settings.register_profile("exact", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("exact")


SEED = 20260809


@pytest.fixture(autouse=True)
def _fresh_memos(monkeypatch):
    """Each test starts with no kept named-case context, no kept transport
    step, and no kept oracle system or module slice, so what it counts or
    records does not depend on which tests ran before it."""
    _case_context.cache_clear()
    transported.cache_clear()
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", oracle.SystemMemo(oracle.SYSTEM_BUDGET))


def make_rng(salt: int = 0) -> random.Random:
    return random.Random(SEED + salt)


def identity_matrix(size: int):
    return tuple(tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size))


def mat_mul(a, b):
    """The dense product a*b by the textbook triple loop, the reference for
    `poly.LinearAction`'s product on nonzero entries."""
    inner = range(len(b))
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in inner), ZERO) for j in range(len(b[0])))
        for i in range(len(a))
    )


def dense(linear):
    """The dense matrix of a `poly.LinearAction` or a `SignedElement`, from its rows.

    The engine keeps linear maps only as sparse rows; the dense form is the
    tests' independent reference, for `mat_mul` and `close_group`.
    """
    out = [[ZERO] * len(linear.rows) for _ in linear.rows]
    for i, row in enumerate(linear.rows):
        for j, c in row:
            out[i][j] = c
    return tuple(map(tuple, out))


def sparse(matrix):
    """The rows of a dense matrix in the `poly.LinearAction.rows` form.

    Every entry is listed, zeros included, as given; the engine's check
    coerces the entries and drops the zeros.
    """
    return tuple(tuple(enumerate(row)) for row in matrix)


def element_product(*factors) -> SignedElement:
    """The product of signed elements by `mat_mul`, with the product sign.

    The engine multiplies only actions; this builds, and so checks, the
    product element afresh from its dense matrix.
    """
    matrix, sign = dense(factors[0]), factors[0].sign
    for f in factors[1:]:
        matrix, sign = mat_mul(matrix, dense(f)), sign * f.sign
    return SignedElement(sparse(matrix), sign)


def close_group(generators, max_order: int = 64) -> dict:
    """Reference closure: each dense matrix of the generated group with its sign.

    A breadth-first walk over `mat_mul` products from the identity, which
    comes first.  A matrix reached with two signs raises SignInconsistency
    with the engine's message, so the engine's sign comparison can be
    compared with it verdict for verdict.
    """
    identity = identity_matrix(generators[0].size)
    matrices = [(dense(g), g.sign) for g in generators]
    signs = {identity: 1}
    frontier = [(identity, 1)]
    while frontier:
        new = []
        for matrix, sign in frontier:
            for g, g_sign in matrices:
                product = (mat_mul(matrix, g), sign * g_sign)
                if product[0] not in signs:
                    signs[product[0]] = product[1]
                    new.append(product)
                elif signs[product[0]] != product[1]:
                    raise SignInconsistency(
                        "element reached with both signs; sign map is not well defined"
                    )
        assert len(signs) <= max_order, "reference closure is not finite"
        frontier = new
    return signs


def random_coefficient(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )


def random_polynomial(
    rng: random.Random, nblocks: int, max_degree: int = 6, terms: int = 4
) -> Polynomial:
    nvars = 2 * nblocks + 2
    built: dict = {}
    for _ in range(terms):
        degree = rng.randint(0, max_degree)
        mono = [0] * nvars
        for _ in range(degree):
            mono[rng.randrange(nvars)] += 1
        built[tuple(mono)] = random_coefficient(rng)
    return Polynomial(nvars, built)


def random_real_polynomial(
    rng: random.Random, nblocks: int, max_degree: int = 6, terms: int = 4
) -> Polynomial:
    p = random_polynomial(rng, nblocks, max_degree, terms)
    doubled = p + p.conj()
    return doubled


def normalize_leading(elem):
    """Rescale a Polynomial or PolyMap by the inverse of its leading rational coefficient.

    The leading coefficient is that of the grlex-largest monomial of the
    first nonzero stored component.  A purely imaginary one keeps its factor
    i and is scaled to unit imaginary part.  This is the rescaling the
    pipeline applies on terms to the candidates it hands to the prunes.
    """
    comps = (elem,) if isinstance(elem, Polynomial) else (*elem.x_components, *elem.z_components)
    lead = next((c for c in comps if c), None)
    if lead is None:
        return elem
    c = lead.sorted_terms()[0][1]
    return elem.scale(Fraction(1) / (c.re if c.re else c.im))


def random_polymap(
    rng: random.Random, nblocks: int, max_degree: int = 6, terms: int = 3
) -> PolyMap:
    xs = tuple(random_real_polynomial(rng, nblocks, max_degree, terms) for _ in range(2))
    zs = tuple(random_polynomial(rng, nblocks, max_degree, terms) for _ in range(nblocks))
    return PolyMap(xs, zs)


# signed elements on one rotation block whose monomial actions are neither
# phi nor psi nor a signed permutation
MONOMIAL_ELEMENTS = [
    # x1 and x2 swapped, z -> i zb; a reversing involution
    SignedElement(sparse([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, I], [0, 0, -I, 0]]), -1),
    # x2 -> x2 / 2 and z -> (1 + 2i) z; a symmetry of infinite order
    SignedElement(
        sparse(
            [[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, GaussianRational(1, 2), 0],
             [0, 0, 0, GaussianRational(1, -2)]]
        ),
        1,
    ),
]


def slice_of(degree: int, kind: str, nvars: int, elements) -> DegreeSlice:
    """The DegreeSlice whose rows are the given elements, dependent or not."""
    return DegreeSlice(degree, kind, tuple(vectorize(e) for e in elements), nvars)


def dense_rref(rows: list[list], ncols: int) -> int:
    """Reference Gauss-Jordan over any field, in place; returns the rank.

    Row r of the result has entry 1 at the r-th pivot column and 0 at every
    other pivot column.
    """
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.fixture(scope="session")
def nonres2_plus():
    return SymmetryContext.from_case("non_resonant", (2,), (1, 1, 1))


@pytest.fixture(scope="session")
def nonres2_minus():
    return SymmetryContext.from_case("non_resonant", (2,), (-1, 1, 1))


@pytest.fixture(scope="session")
def c3_contexts():
    signs_by_type = {
        "A": (1, 1, 1, 1),
        "B": (1, 1, -1, 1),
        "C": (-1, 1, 1, 1),
        "D": (-1, 1, -1, 1),
    }
    return {
        typ: SymmetryContext.from_case("res_n1n2_C3", (1, 2), signs)
        for typ, signs in signs_by_type.items()
    }


@pytest.fixture(scope="session")
def c3_gensets(c3_contexts):
    return {typ: pipeline(ctx) for typ, ctx in c3_contexts.items()}
