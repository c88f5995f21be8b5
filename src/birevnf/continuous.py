"""Continuous symmetry of the linearization: shear, torus, involutions, catalogs.

The linearization acts on R^2 x C^n through a 2x2 nilpotent block and n
rotation blocks with nonzero frequencies.  The closure of its exponential
flow is a shear factor times a k-torus, where k counts algebraically
independent frequencies; the torus is described purely by an integer weight
lattice derived from the declared resonance relations, never by numeric
frequency values, so no accidental resonances can sneak in.

The `LinearPart` is the one problem datum of the closure group.
Invariance and equivariance under it reduce to exact integer conditions on
exponents (torus) plus polynomial identities for the shear
(`LinearPart.infinitesimal_ok`).  Its catalog, the Hilbert basis and
equivariant generators, is derived from the weight lattice by
Contejean-Devie completion (`closure_data`), for any linear part, when the
pipeline reads it; the named cases only fix the linear part.  Every linear
map here, the shear and torus generators and the two involutions (signed
permutations, `psi_rows`), is written as sparse rows, each row's (column,
entry) pairs, and checked once as a `LinearAction`.

The module also enumerates the inequivalent pairs of commuting reversing
involutions, as contexts and at most MAX_SIGN_CLASSES of them, and
classifies the sign regimes into the four normal-form types.  One check of
the involution pair, `check_involution_pair`, decides the reversing tower
(S x| Z2(phi)) x| Z2(psi) for `SymmetryContext.build` and for the pair
enumeration, which runs it on n + 1 pairs only: psi(a) = D(a) phi for a
diagonal sign flip D(a), so the all-ones pair and the single flips decide
every class (`enumerate_involution_pairs`).  The finite part of the tower
is the Klein four-group {e, phi, psi, phi*psi}; as phi and psi
anti-commute with L, the sign map on it comes down to one comparison,
read off their sparse rows; no group is closed.  The checks compare
products of linear maps as rows of (column, re, im) triples on the
entries' int or Fraction parts (`poly.compose`); no product is built as
an action or an element.  API input is checked once, here: a count,
coefficient, case parameter or sign that is not an int is rejected, not
truncated.

A named case is checked once per process: `SymmetryContext.from_case`
checks its inputs' types on every call, then keeps the context it builds
for each (case, params, signs), the last CONTEXT_CACHE of them, and hands
the same frozen, checked object to every later call.  `build`, the pair
enumeration and the checks themselves keep nothing.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import gcd
from operator import add, ge
from typing import NamedTuple, Sequence

from .errors import (
    ConditionViolated,
    DimensionError,
    ResourceLimit,
    SignInconsistency,
    UnsupportedCase,
)
from .group import GroupContext, SignedElement, anticommute_check
from .linalg import Echelon, _to_integer_row
from .poly import (
    Frozen,
    I,
    LinearAction,
    ONE,
    PolyMap,
    Polynomial,
    compose,
    im_part,
    re_part,
    x_index,
    z_index,
    zbar_index,
)

# the most sign classes, 2^n on n rotation blocks, that
# `enumerate_involution_pairs` builds a pair for
MAX_SIGN_CLASSES = 4096

# the most named-case contexts that `SymmetryContext.from_case` keeps
CONTEXT_CACHE = 64


# -- the linearization -------------------------------------------------------


class LinearPart(Frozen):
    """Nilpotent 2x2 block plus n rotation blocks with symbolic frequencies.

    resonance_relations rows (c_1, ..., c_n) assert sum_j c_j omega_j = 0;
    the frequencies are otherwise algebraically independent.  Rows that
    would force some omega_j = 0 are rejected, matching the requirement
    that every frequency is nonzero.  The linear part is the one source of
    the closure group's data: its weight lattice, the infinitesimal
    conditions (`infinitesimal_ok`) and the catalog (`closure_data`).  So
    equality and the hash read n and the weight lattice: relations that
    span one rational space, such as (1, -2) and (2, -4), give equal linear
    parts, and each keeps its own spelling in `resonance_relations`.  The
    hash is computed once; a linear part is frozen.
    """

    def __eq__(self, other):
        if not isinstance(other, LinearPart):
            return NotImplemented
        return (self.n, self.torus_weight_rows()) == (other.n, other.torus_weight_rows())

    def __hash__(self):
        return self._hash

    def __init__(self, n: int, resonance_relations: tuple[tuple[int, ...], ...] = ()):
        object.__setattr__(self, "n", n)
        _integers((self.n,))
        if self.n < 1:
            raise DimensionError("at least one rotation block is required")
        rels = []
        for row in map(_integers, resonance_relations):
            if len(row) != self.n:
                raise DimensionError("resonance relation of wrong length")
            if not any(row):
                raise DimensionError("zero resonance relation")
            rels.append(row)
        object.__setattr__(self, "resonance_relations", tuple(rels))
        # a frequency forced to zero contradicts the nonzero-frequency requirement
        ech = Echelon(
            {j: c for j, c in enumerate(row) if c} for row in self.resonance_relations
        )
        for j in range(self.n):
            if ech.contains({j: 1}):
                raise DimensionError(
                    f"relations force omega{j + 1} = 0; frequencies must be nonzero"
                )
        # the primitive integer basis of the frequency solution lattice
        rows = []
        for vec in ech.nullspace(range(self.n)):
            ints = _to_integer_row(vec)
            rows.append(tuple(ints.get(j, 0) for j in range(self.n)))
        object.__setattr__(self, "_weight_rows", tuple(sorted(rows, reverse=True)))
        object.__setattr__(self, "_hash", hash((self.n, self._weight_rows)))
        # for `infinitesimal_ok`: the (z column, conj(z) column, w) of each
        # row's nonzero entries, and the weight of each coordinate component
        # under every row
        weight_terms = tuple(
            tuple((z_index(j), zbar_index(j), w) for j, w in enumerate(weights, start=1) if w)
            for weights in self._weight_rows
        )
        component_weights = tuple(
            tuple(self.component_weight(c, weights) for weights in self._weight_rows)
            for c in range(self.n + 2)
        )
        object.__setattr__(self, "_weight_terms", weight_terms)
        object.__setattr__(self, "_component_weights", component_weights)
        # the shear x1 d/dx2, then per weight row w the torus generator
        # z_j -> i w_j z_j, as sparse rows
        shear = [()] * self.nvars
        shear[x_index(2)] = ((x_index(1), ONE),)
        generators = [shear]
        for weights in self._weight_rows:
            torus = [(), ()]
            for j, w in enumerate(weights, start=1):
                torus += [((z_index(j), I * w),), ((zbar_index(j), I * -w),)]
            generators.append(torus)
        object.__setattr__(
            self, "_generators", tuple(LinearAction(m, self.nvars) for m in generators)
        )

    @property
    def nblocks(self) -> int:
        return self.n

    @property
    def nvars(self) -> int:
        return 2 * self.n + 2

    def torus_weight_rows(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer basis of the frequency solution lattice."""
        return self._weight_rows

    def infinitesimal_generators(self) -> tuple[LinearAction, ...]:
        """The shear, then one torus generator per weight row, as checked actions.

        Built from their sparse rows and checked once, with the linear part.
        """
        return self._generators

    def component_weight(self, comp: int, weights: Sequence[int]) -> int:
        """Torus weight of coordinate component comp (0,1 = x; 2+j = z_{j+1})."""
        return 0 if comp < 2 else weights[comp - 2]

    def infinitesimal_ok(self, obj, kind: str) -> bool:
        """Whether obj meets the torus and shear conditions of the closure group.

        An "invariant" Polynomial has torus weight 0 in every monomial and
        x1 d/dx2 p = 0.  An "equivariant" PolyMap has the weight of each
        component in each of its monomials, and commutes with the shear:
        x1 d/dx2 g = (0, g_x1, 0, ..., 0).  Both are read off the terms;
        no Polynomial is built.
        """
        if kind == "invariant":
            if not isinstance(obj, Polynomial):
                raise TypeError("invariance applies to Polynomial")
            comps = (obj,)
        elif kind == "equivariant":
            if not isinstance(obj, PolyMap):
                raise TypeError("equivariance applies to PolyMap")
            comps = (*obj.x_components, *obj.z_components)
        else:
            raise ValueError(f"unknown infinitesimal kind {kind!r}")
        if obj.nvars != self.nvars:
            raise DimensionError(
                f"object on {obj.nvars} coordinates, linearization on {self.nvars}"
            )
        # each monomial's torus weight under every row, from the row's
        # nonzero entries, must be its component's; and x1 d/dx2 kills
        # every component but g_x2: none of them holds x2
        x1, x2 = x_index(1), x_index(2)
        weight_terms = self._weight_terms
        for c, (poly, targets) in enumerate(zip(comps, self._component_weights)):
            for mono in poly.monomials():
                if mono[x2] and c != 1:
                    return False
                for row, target in zip(weight_terms, targets):
                    weight = 0
                    for z, zb, w in row:
                        weight += w * (mono[z] - mono[zb])
                    if weight != target:
                        return False
        if kind == "invariant":
            return True
        # x1 d/dx2 g_x2 = g_x1: the term (m, c) of g_x2 goes to c * m[x2] at
        # m with one x2 moved to x1, injectively, so both sides must have as
        # many terms and each must be found
        source, target = comps[1].terms, comps[0].terms
        shifted = 0
        for mono, c in source.items():
            e = mono[x2]
            if e:
                image = list(mono)
                image[x2] -= 1
                image[x1] += 1
                d = target.get(tuple(image))
                if d is None or d.re != c.re * e or d.im != c.im * e:
                    return False
                shifted += 1
        return shifted == len(target)


def _integers(values, error=DimensionError) -> tuple[int, ...]:
    """values as a tuple of ints; error on any other entry, a bool or 2.0 included."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise error(f"expected an integer, got {v!r}")
    return values


# -- involutions -------------------------------------------------------------


def phi_rows(n: int) -> tuple:
    """(x1, x2, z) -> (x1, -x2, conj z): the all-ones `psi_rows`."""
    return psi_rows((1,) * (n + 1))


def psi_rows(signs: Sequence[int]) -> tuple:
    """(x1, x2, z) -> (a0 x1, -a0 x2, a_j conj z_j) for signs (a0, ..., an).

    The signed permutation as `LinearAction.rows`, one int entry per row.
    Each is a sign flip of phi: psi(a) = D(a) phi, where D(a) =
    diag(a0, a0, a1, a1, ..., an, an) is the product of the single flips
    D_k of the signs a_k = -1 (`test_every_psi_is_a_sign_flip_of_phi`).
    """
    signs = _integers(signs)
    if any(s not in (1, -1) for s in signs):
        raise DimensionError("signs must be +1 or -1")
    if len(signs) < 2:
        raise DimensionError("need signs (a0, a1, ..., an) with n >= 1")
    rows = [((x_index(1), signs[0]),), ((x_index(2), -signs[0]),)]
    for j, a in enumerate(signs[1:], start=1):
        rows += [((zbar_index(j), a),), ((z_index(j), a),)]
    return tuple(rows)


def phi_element(n: int) -> SignedElement:
    return SignedElement(phi_rows(n), -1, "phi")


def psi_element(signs: Sequence[int]) -> SignedElement:
    return SignedElement(psi_rows(signs), -1, "psi")


def fix_dimension(element: SignedElement) -> int:
    """Real dimension of the fixed-point space of a linear involution A.

    A * A = I splits V into the eigenspaces of +1 and -1, so the first has
    dimension (size + trace A) / 2, read off the diagonal of the element's
    rows; the real parts of the diagonal are summed as ints (an involution's
    diagonal entries are 1 or -1).  ConditionViolated for an element that
    is not an involution.
    """
    if not element.is_involution():
        raise ConditionViolated(f"{element.name or 'element'} must be an involution")
    trace = sum(c.re for i, row in enumerate(element.rows) for j, c in row if j == i)
    return (element.size + trace) // 2


def check_involution_pair(linear_part: LinearPart, phi: SignedElement, psi: SignedElement):
    """Check that (phi, psi) builds the reversing tower (S x| Z2(phi)) x| Z2(psi).

    Four facts are checked, on the sparse rows of each element's action
    and the (column, re, im) rows of their products (`poly.compose`):
    each element anti-commutes with every infinitesimal generator M of S
    (`LinearPart.infinitesimal_generators`: the shear and one torus
    generator per weight row); each is an involution; the two commute; and
    the sign map gives no matrix two signs.  Two commuting involutions
    generate exactly e (+1), phi, psi and phi*psi, the Klein four-group or
    a quotient of it where two coincide, and every product carries the
    product of its factors' signs.  An element that anti-commutes with the
    shear is not e, so phi and psi differ from e, and phi*psi equals phi or
    psi only if the other is e.  The one coincidence left is psi = phi,
    with phi*psi = e: the sign map is well defined iff then the two signs
    agree, and that comparison fixes it as a homomorphism.

    These decide every condition of the tower.  Conjugation by gamma, either
    element, preserves S and its generator lattice: gamma is its own
    inverse, so gamma M gamma^-1 = gamma M gamma = -M gamma gamma = -M, an
    integer combination of the generators.  Conjugation by psi preserves the
    first factor and the signs on it: psi phi psi^-1 = psi phi psi = phi psi
    psi = phi, the same element with the same sign.  What is left, that the
    product sign map is well defined, is the sign comparison.

    Raises DimensionError when an element does not anti-commute with L,
    ConditionViolated when one is not an involution or the two do not
    commute, and SignInconsistency when psi = phi with the other sign.
    """
    for gamma in (phi, psi):
        if not anticommute_check(gamma, linear_part):
            raise DimensionError(f"{gamma.name or 'involution'} does not anti-commute with L")
        if not gamma.is_involution():
            raise ConditionViolated(f"{gamma.name or 'element'} must be an involution")
    if compose(phi.action, psi.action) != compose(psi.action, phi.action):
        raise ConditionViolated("the two involutions must commute")
    if phi.action.rows == psi.action.rows and phi.sign != psi.sign:
        raise SignInconsistency(
            "element reached with both signs; sign map is not well defined"
        )


def require_sign_classes(n: int) -> int:
    """n, once its 2^n sign classes are at most MAX_SIGN_CLASSES; else ResourceLimit."""
    if 1 << n > MAX_SIGN_CLASSES:
        raise ResourceLimit(
            f"{n} rotation blocks give 2^{n} sign classes, more than {MAX_SIGN_CLASSES}"
        )
    return n


def enumerate_involution_pairs(linear_part: LinearPart) -> tuple[SymmetryContext, ...]:
    """The 2^n reversing pairs with a0 = +1, one per sign vector, as contexts.

    The first involution is fixed; the second runs over the block sign
    tuples (a0, ..., an) with a0 = +1 only.  A vector with a0 = -1 is not
    the same problem as its negation: psi(-a) = -psi(a) gives other
    invariant and equivariant spaces (on `res_n1n2_C3` (1,2), signs
    1,1,-1,1 and -1,-1,1,-1 differ in dim R_d and dim V_d), and those of
    Types C and D are not listed here.  Each element has an
    (n+1)-dimensional fixed-point space.  More than MAX_SIGN_CLASSES
    classes raise ResourceLimit before any element is built
    (`require_sign_classes`).

    Every returned pair passes `check_involution_pair`, run on n + 1 of
    them: the all-ones vector, then each single flip a_k = -1 (k = 1..n).
    As psi(a) = D(a) phi (`psi_rows`, `test_every_psi_is_a_sign_flip_of_phi`),
    a pair passes exactly when D = psi phi commutes with phi and with each
    generator M of S, and D^2 = e: then psi M = D phi M = -M psi,
    psi^2 = D^2 = e, and every psi has phi's sign.  Those properties are
    closed under products of the diagonal, so commuting, D_k, and D(a) is
    the product of the D_k of its flipped signs.  A listing that also takes
    a0 = -1 checks the flip k = 0 as well.

    Only those n + 1 psi(a) are built by `psi_element`; each listed psi(a)
    is D(a) phi on their rows, unchecked, an involution as shown.
    """
    n = require_sign_classes(linear_part.n)
    phi = phi_element(n)
    vectors = tuple(iter_product((1,), *[(1, -1)] * n))
    # the all-ones vector comes first, and the flip of a_k alone at 2^(n-k)
    checked = {i: psi_element(vectors[i]) for i in (0, *(1 << (n - k) for k in range(1, n + 1)))}
    for psi in checked.values():
        check_involution_pair(linear_part, phi, psi)
    # row i of psi(a) is that of the flip of a_k, k = i // 2, when a_k = -1,
    # else phi's (a0 = 1 throughout)
    choices = [
        (row, checked[1 << (n - i // 2)].rows[i] if i > 1 else row)
        for i, row in enumerate(phi.rows)
    ]
    return tuple(
        SymmetryContext(linear_part, signs, phi, checked.get(index) or SignedElement._trusted(
            tuple(pair[signs[i // 2] < 0] for i, pair in enumerate(choices)),
            phi.sign, "psi", involution=True,
        ))
        for index, signs in enumerate(vectors)
    )


def orbit_representative(linear_part: LinearPart, signs: Sequence[int]) -> tuple[int, ...]:
    """The first sign vector in listing order with the a0 and characters of signs.

    The characters are prod_j a_j^{m_j} for m in the saturated relation
    lattice Lambda, the m in Z^n orthogonal to every weight row.  The flip
    D(k) of the blocks k lies in S iff m.k is even on Lambda, iff k is in
    K = (the rational span of the weight rows, in Z^n) mod 2, and psi(a) D(k)
    = psi(a'): an orbit a + K is one problem.  K is eliminated over the
    rationals with odd denominators: each row is divided by its entries'
    power of 2, so (2, -4) and (1, -2) give one K, and pivots on its first
    odd entry, which later rows then lack.  So with a1 on the top bit and -1
    a set bit, the rows mod 2 have distinct leading bits, and reducing the
    mask from the top bit down gives the orbit's least, first listed, mask.
    """
    n, rows, flips = linear_part.n, [list(w) for w in linear_part.torus_weight_rows()], []
    while rows:
        row = rows.pop()
        low = min(c & -c for c in row if c)
        row = [c // low for c in row]
        p = next(j for j, c in enumerate(row) if c % 2)
        rows = [[row[p] * c - other[p] * r for c, r in zip(other, row)] for other in rows]
        flips.append(sum(1 << (n - 1 - j) for j, c in enumerate(row) if c % 2))
    mask = sum(1 << (n - j) for j, a in enumerate(signs[1:], start=1) if a == -1)
    for flip in sorted(flips, reverse=True):
        mask = min(mask, mask ^ flip)
    return (signs[0], *(-1 if mask >> (n - j) & 1 else 1 for j in range(1, n + 1)))


def classify_type(signs: Sequence[int], exponents: Sequence[int]) -> str:
    """Normal-form type A/B/C/D from (a0, a1, a2) and the resonance pair."""
    signs, exponents = _integers(signs), _integers(exponents)
    if len(signs) < 3:
        raise DimensionError("need at least signs (a0, a1, a2)")
    if len(exponents) != 2:
        raise DimensionError(f"need a resonance pair (n1, n2), got {len(exponents)} exponents")
    n1, n2 = exponents
    if n1 < 1 or n2 < 1:
        raise DimensionError("resonance exponents must be >= 1")
    a0, a1, a2 = signs[0], signs[1], signs[2]
    if any(s not in (1, -1) for s in (a0, a1, a2)):
        raise DimensionError("signs must be +1 or -1")
    twist = a1 ** n2 * a2 ** n1
    if a0 == 1:
        return "A" if twist == 1 else "B"
    return "C" if twist == 1 else "D"


# -- the derived catalog -----------------------------------------------------


def _unit_map(n: int, comp: int, poly: Polynomial) -> PolyMap:
    nvars = 2 * n + 2
    zero = Polynomial.zero(nvars)
    xs = [zero, zero]
    zs = [zero] * n
    if comp < 2:
        xs[comp] = poly
    else:
        zs[comp - 2] = poly
    return PolyMap(tuple(xs), tuple(zs))


def _x_pair_map(n: int) -> PolyMap:
    nvars = 2 * n + 2
    zero = Polynomial.zero(nvars)
    return PolyMap(
        (Polynomial.variable(nvars, 0), Polynomial.variable(nvars, 1)),
        (zero,) * n,
    )


def _minimal_solutions(columns, target, known=()) -> list[tuple[int, ...]]:
    """Componentwise-minimal x >= 0, x != 0, with sum_i x_i columns[i] = target.

    Contejean-Devie completion, one degree at a time: x grows by e_i only
    while <A x - target, A e_i> < 0, and stops once it lies above a solution
    already found or above one of `known`.  The homogeneous search starts
    from the unit vectors, the inhomogeneous one from 0; the latter must be
    given the homogeneous solutions as `known` (x above a homogeneous h is
    the solution x - h plus h, so not minimal, and z2 conj(z2)^k would
    otherwise grow forever).  It ends by itself, with no degree bound.
    """
    size = len(columns)
    zero = (0,) * size
    if any(target):
        frontier = {zero: tuple(-t for t in target)}
    else:
        frontier = {}
        for i, col in enumerate(columns):
            frontier[zero[:i] + (1,) + zero[i + 1 :]] = col
    found: list[tuple[int, ...]] = []
    stops = list(known)
    while frontier:
        grow = []
        for x, defect in frontier.items():
            if any(defect):
                grow.append((x, defect))
            else:
                found.append(x)
                stops.append(x)
        frontier = {}
        for x, defect in grow:
            for i, col in enumerate(columns):
                if sum(d * c for d, c in zip(defect, col)) >= 0:
                    continue
                y = x[:i] + (x[i] + 1,) + x[i + 1 :]
                if y in frontier or any(all(map(ge, y, s)) for s in stops):
                    continue
                frontier[y] = tuple(map(add, defect, col))
    return found


class Catalog(NamedTuple):
    """The closure group's Hilbert basis and equivariant generators."""

    hilbert_basis: tuple[Polynomial, ...]
    equivariant_generators: tuple[PolyMap, ...]


def closure_data(linear: LinearPart) -> Catalog:
    """Hilbert basis and equivariant generators of the shear x torus closure.

    Computed from the weight lattice W = linear.torus_weight_rows(): the z_j
    exponent has weight W e_j and the conj(z_j) exponent -W e_j.  The
    torus-invariant monomials in z, conj(z) are generated by the minimal
    solutions of W(a - b) = 0; the equivariants in component z_j by the
    minimal solutions of W(a - b) = W e_j over them.  The ring basis is x1,
    then the invariant solutions by (highest block touched, degree,
    exponents descending), |z_k|^2 as is and any other as its real and
    imaginary part, oriented so that its first nonzero z - conj(z) exponent
    difference is positive.  The generators are (x1, x2) and (0, 1), then
    per block j its solutions m by (degree, exponents descending), each as
    m and i*m in component z_j.  Every element meets
    `linear.infinitesimal_ok`, as the tests check for each derived catalog.
    """
    n = linear.n
    nvars = linear.nvars
    weights = linear.torus_weight_rows()
    columns = []
    for j in range(n):
        column = tuple(row[j] for row in weights)
        columns += [column, tuple(-w for w in column)]

    def monomial(x, coeff=1) -> Polynomial:
        return Polynomial.monomial(nvars, (0, 0) + x, coeff)

    def degree_key(x):
        return (sum(x), tuple(-e for e in x))

    def oriented(x) -> bool:
        diffs = [a - b for a, b in zip(x[::2], x[1::2])]
        return next((d > 0 for d in diffs if d), True)

    invariant = _minimal_solutions(columns, (0,) * len(weights))
    basis = [Polynomial.variable(nvars, x_index(1))]
    for x in sorted(
        filter(oriented, invariant),
        key=lambda x: (max(i for i, e in enumerate(x) if e) // 2, *degree_key(x)),
    ):
        p = monomial(x)
        basis += [p] if x[::2] == x[1::2] else [re_part(p), im_part(p)]
    gens = [_x_pair_map(n), _unit_map(n, 1, Polynomial.constant(nvars, 1))]
    for j in range(n):
        for x in sorted(
            _minimal_solutions(columns, columns[2 * j], invariant), key=degree_key
        ):
            gens += [_unit_map(n, 2 + j, monomial(x)), _unit_map(n, 2 + j, monomial(x, I))]
    return Catalog(tuple(basis), tuple(gens))


# parameter names of each catalog case
CASE_PARAMETERS = {
    "non_resonant": ("n",),
    "res_n1n2_C3": ("n1", "n2"),
    "res_n1n2_Cn": ("n1", "n2", "n"),
    "res_double_C4": ("n1", "n2", "m1", "m2"),
}


def case_blocks(case: str, params: Sequence[int]) -> int:
    """Rotation-block count of a named case, once its parameters pass.

    The one check of case parameters, run by `linear_part_for_case` and by
    the CLI's config validation, so every command rejects the same inputs:
    a wrong count, a parameter that is not an integer or is below 1, a
    resonance pair with a common factor or equal to 1:1, and res_n1n2_Cn
    with n < 3.
    """
    if case not in CASE_PARAMETERS:
        raise UnsupportedCase(
            f"unknown case {case!r}; choose from " + ", ".join(sorted(CASE_PARAMETERS))
        )
    params = _integers(params, UnsupportedCase)
    names = CASE_PARAMETERS[case]
    if len(params) != len(names):
        raise UnsupportedCase(f"{case} expects ({', '.join(names)})")
    if any(p < 1 for p in params):
        raise UnsupportedCase("case parameters must be >= 1")
    if case == "non_resonant":
        return params[0]
    if case == "res_double_C4":
        n, pairs = 4, (params[:2], params[2:])
    else:
        n, pairs = (params[2] if case == "res_n1n2_Cn" else 3), (params[:2],)
        if n < 3:
            raise UnsupportedCase("res_n1n2_Cn requires n >= 3")
    for a, b in pairs:
        if gcd(a, b) != 1:
            raise UnsupportedCase(
                f"resonance exponents ({a}, {b}) share a factor; use the reduced pair"
            )
    if (1, 1) in pairs:
        # the linear part these parameters name, for the API to take
        relations = _case_relations(case, params, n)
        raise UnsupportedCase(
            "equal frequencies (the 1:1 case) are outside the named cases; use "
            f"SymmetryContext.build(LinearPart({n}, {relations}), signs)"
        )
    return n


def _case_relations(case: str, params: Sequence[int], n: int) -> tuple:
    """The resonance relations of a resonant case on n blocks."""
    if case == "res_double_C4":
        n1, n2, m1, m2 = params
        return ((-n2, n1, 0, 0), (0, 0, -m2, m1))
    n1, n2 = params[:2]
    return ((-n2, n1) + (0,) * (n - 2),)


def linear_part_for_case(case: str, params: Sequence[int]) -> LinearPart:
    """The linearization of a named case, its parameters checked."""
    n = case_blocks(case, params)
    if case == "non_resonant":
        return LinearPart(n)
    return LinearPart(n, _case_relations(case, params, n))


def catalog(case: str, params: Sequence[int]) -> Catalog:
    """The closure-group catalog of a named case, that of its linear part.

    Cases: non_resonant(n), res_n1n2_C3(n1, n2), res_n1n2_Cn(n1, n2, n),
    res_double_C4(n1, n2, m1, m2).
    """
    return closure_data(linear_part_for_case(case, params))


# -- the full problem datum --------------------------------------------------


class SymmetryContext(Frozen):
    """Linearization and the reversing involution pair.

    The linear part carries the closure group's data; `build` checks the
    signs and that the involution pair passes `check_involution_pair`.  A
    context is frozen, and equality and the hash read all four fields.
    """

    def __init__(
        self, linear_part: LinearPart, signs: tuple[int, ...], phi: SignedElement,
        psi: SignedElement,
    ):
        vars(self).update(linear_part=linear_part, signs=signs, phi=phi, psi=psi)

    def _value(self) -> tuple:
        return (self.linear_part, self.signs, self.phi, self.psi)

    @classmethod
    def build(cls, linear_part: LinearPart, signs: Sequence[int]) -> "SymmetryContext":
        signs = _integers(signs)
        if len(signs) != linear_part.n + 1:
            raise DimensionError(
                f"expected {linear_part.n + 1} signs (a0..an), got {len(signs)}"
            )
        phi = phi_element(linear_part.n)
        psi = psi_element(signs)
        check_involution_pair(linear_part, phi, psi)
        return cls(linear_part, signs, phi, psi)

    @classmethod
    def from_case(
        cls, case: str, params: Sequence[int], signs: Sequence[int]
    ) -> "SymmetryContext":
        """The context of a named case, checked once per process.

        The case, its parameters and the signs' types are checked first,
        with the errors of `build(linear_part_for_case(case, params), signs)`
        in its order; the memo is keyed only on their int tuples, so a bool
        or a float never finds the context of an int, and lists are accepted.
        A miss runs that `build` call; a hit returns the context it built.
        Errors are raised again on every call, never kept.
        """
        case_blocks(case, params)
        return _case_context(case, _integers(params, UnsupportedCase), _integers(signs))

    @property
    def nblocks(self) -> int:
        return self.linear_part.n

    @cached_property
    def orbit_psi(self) -> SignedElement:
        """psi of the signs' `orbit_representative`, psi t for an order-2 t in S:
        <S, phi, psi t> is this context's group with its sign map.  Built once."""
        rep = orbit_representative(self.linear_part, self.signs)
        return self.psi if rep == self.signs else psi_element(rep)

    def full_context(self) -> GroupContext:
        """Both involutions reversing: the product sign map sigma."""
        return GroupContext((self.phi, self.psi), self.linear_part)


@lru_cache(maxsize=CONTEXT_CACHE)
def _case_context(case: str, params: tuple[int, ...], signs: tuple[int, ...]) -> SymmetryContext:
    """`SymmetryContext.from_case` on its checked inputs, the last
    CONTEXT_CACHE of them kept."""
    return SymmetryContext.build(linear_part_for_case(case, params), signs)
