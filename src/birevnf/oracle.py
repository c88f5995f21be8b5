"""Degree-graded brute-force computation of symmetry-constrained spaces.

Independent certification path: instead of transporting generators, each
degree slice is built from scratch as a set of orbit sums of monomials.

A slice is kept as rows: `DegreeSlice.rows` holds independent vectors in
the column keys of `linalg.vectorize`, and its dimension is their count.
The sorted Polynomial/PolyMap `basis` is derived from the rows only when
something reads it (the golden artifacts, the tests, or a witness), so a
`verify` run that certifies builds no Polynomial or PolyMap here.

The slice as orbit sums.  Let E_d be the degree-d functions or maps that
are equivariant under the torus and the shear.  A torus weight reads only
the z/zb exponents, and x1 d/dx2 only the x2 exponent, so E_d has a
monomial basis (`_equivariant_basis`), its real and imaginary parts taken
as the naive oracle takes them: for functions, the x2-free weight-zero
monomials a; for maps, the records (x1 b, x2 b, 0) and (0, a, 0) for
weight-zero x2-free b and a of degree d - 1 and d, and w e_c for each z
component c and x2-free w of c's weight.  One walk of the rotation blocks
(`_torus_monomials`) gives the x records: x1 b is a weight-zero monomial
with an x1 exponent >= 1.  The slice is the image of E_d under the
Reynolds-type projector prod_i (1 + s_i A_i) / 2 of the elements
(Sturmfels, *Algorithms in Invariant Theory*, 2.1; Gatermann, LNM 1728),
with A p = p(A v) on functions, A g = A g(A v) on maps, and s an element's
sign for the signed kinds and 1 otherwise.  The oracle slices the elements
that are signed permutations with entries +-1 sending x1 to +-x1, x2 to
+-x2, and either every z_j to +-z_j or every z_j to +-zb_j
(`_signed_permutation`); any other raises `DimensionError` on a miss.  The
full context, phi's and each sign map's are of this kind.  Such elements
are involutions that commute and keep the shear and the torus, so the
product is a projector of E_d.  Each of them sends each record of the
basis to +-itself: its substitution and its action on the output
conjugate a z part together or not at all.  So each orbit is one record;
no two records share a parameter, so the orbit sums have disjoint
supports; and an orbit sum is 2^k times its record or zero.  It is the
record when each element's character there, (-1) to the number of its
negated coordinates among the record's odd ones (`_parity`), times -1
for an imaginary part under a conjugating element, is its s.  The sums
are independent, and nothing is eliminated.

The parameters of the defining identities are ordered by component, then
by monomial in descending order, then real before imaginary, with an x or
function monomial filed under the larger of itself and its conjugate.
Scaled to 1 at its last parameter, which is the x2 component's for an x
record, an orbit sum is the canonical nullspace vector of that free
column, and the rows are kept in the order of their last parameters.
They are the reduced-echelon basis that the naive oracle solves for, row
for row (`test_orbit_rows_are_the_naive_rows`; for E_d itself,
`test_the_equivariant_basis_is_the_naive_slice_of_no_element`), and byte
for byte what an elimination gave past the goldens' degrees
(`test_high_degree_rows_keep_their_bytes`).  The slice eliminates nothing
and shares no term kernel with the pipeline
(`test_the_oracle_slice_reaches_no_kernel`).

A slice's rows are kept: `KEPT_SYSTEMS`, a `SystemMemo`, holds them as a
`KeptSystem` under the key (linear part, elements, degree, kind), and the
slices share them: nothing changes a row once it is made.  Let A and B be
the last two elements of a context.  When D = B A is a diagonal sign flip
that scales x1 and x2 alike (every full context: psi(a) = D(a) phi), the
key holds only the elements before B.  D conjugates nothing, so its
character on a record is -1 to the number of D's negated coordinates
among the record's odd ones, a parity that a bitmask per kept row gives
(`_parity`), and B's character is D's times A's.  So the slice is the
kept rows of D-character s_A s_B, in their order.  Another sign class of
the linear part costs that filter, and no row of B.  Any other context
keys all its elements and takes every row.  The system also keeps the
slice of each set of rows picked, and a member of a seen orbit picks the
same rows, so it gets the same slice, with its canonical basis built.
The limit is not in the key: a hit raises the `ResourceLimit` a miss
would, with the same message, when the kept system's (component,
monomial) pairs pass the caller's limit.

`module_slice` reduces `symmetry_ops.module_rows` over the one
`ProductTable` the generator set keeps to the span's canonical basis,
and `KEPT_SYSTEMS` keeps it, with its count of products, under the set's
ring basis and generators, by value, and the degree: a sweep over
degrees builds each product once, and a seen problem builds none.  A
hit raises a miss's `ResourceLimit` when the count passes the caller's
limit.  The one memo is bounded by SYSTEM_BUDGET: a system counts its
(component, monomial) pairs, a module slice its products, and every
entry at least 1, a slice of no products too.  It drops the least
recently used entries first, of either kind, and makes an entry bigger
than the budget for the call and does not keep it.  Its bookkeeping runs
under a lock; two threads that miss on one key at once both make the
entry, and one copy is kept.  `spans_equal` compares the canonical bases
of the two sides (`DegreeSlice.canonical`), on every call: the reduced
row-echelon basis of a span is unique.  It eliminates again only on a
failure, to name a witness.  So a `verify` job on a seen linear part and
orbit runs the character filter and the comparison at each degree, and
eliminates nothing.

The tests hold the independent reference, a naive oracle that solves the
defining identities with its own elimination, and check that its rows are
the orbit rows, and both against the membership predicates.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from functools import cached_property
from threading import Lock
from typing import NamedTuple, Sequence

from .errors import DimensionError, ResourceLimit
from .group import GroupContext, SignedElement
from .linalg import (
    Echelon,
    polymap_from_vector,
    polynomial_from_vector,
    vectorize,
)
from .poly import Frozen, Monomial, conj_monomial, nblocks_of
from .symmetry_ops import module_rows

DEFAULT_MONOMIAL_LIMIT = 200_000

FUNCTION_KINDS = ("invariant", "anti_invariant")
MAP_KINDS = ("equivariant", "reversible_equivariant")


class DegreeSlice(Frozen):
    """One homogeneous symmetry-constrained space, kept as rows.

    `rows` are `linalg.vectorize` vectors of elements on `nvars`
    coordinates, which no reader changes (`slice_space` shares them
    between slices); the engine's slices hold independent rows, so the
    dimension is their count.  `canonical` is the reduced row-echelon
    basis of their span, unique for it: the rows themselves when
    `reduced` says they are that basis (a module slice), else built the
    first time it is read, with no elimination when the rows have
    disjoint supports (an oracle slice's orbit sums).  `basis` is the
    elements of the rows, sorted by `sort_key`, built the first time it is
    read.  A slice is frozen, and equality and the hash read every field
    but `reduced`.
    """

    def __init__(self, degree: int, kind: str, rows: tuple, nvars: int, reduced: bool = False):
        vars(self).update(degree=degree, kind=kind, rows=rows, nvars=nvars, reduced=reduced)

    def _value(self) -> tuple:
        return (self.degree, self.kind, self.rows, self.nvars)

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @cached_property
    def canonical(self) -> tuple:
        rows = self.rows
        if self.reduced:
            return rows
        if all(rows) and sum(map(len, rows)) == len({k for row in rows for k in row}):
            # rows of pairwise disjoint supports, orbit sums among them, are
            # independent and 0 at each other's pivots: scaled to 1 at its
            # pivot, its least key, each is a reduced row
            return tuple(sorted(map(_unit_at_pivot, rows), key=min))
        return tuple(Echelon(rows).reduced_rows())

    @cached_property
    def basis(self) -> tuple:
        if self.kind in FUNCTION_KINDS:
            elements = [polynomial_from_vector(row, self.nvars) for row in self.rows]
        else:
            nblocks = nblocks_of(self.nvars)
            elements = [polymap_from_vector(row, nblocks) for row in self.rows]
        return tuple(sorted(elements, key=lambda e: e.sort_key()))


def _unit_at_pivot(row: dict) -> dict:
    """row divided by its entry at its least key, as `Echelon.reduced_rows` divides."""
    p = row[min(row)]
    return row if p == 1 else {k: v // p if v % p == 0 else Fraction(v, p) for k, v in row.items()}


def _linear_part_of(context: GroupContext):
    linear = context.continuous
    if linear is None:
        raise DimensionError("oracle contexts must carry continuous group data")
    return linear


def _slice_limit(limit: int, degree: int) -> ResourceLimit:
    return ResourceLimit(
        f"more than {limit} admissible (component, monomial) pairs "
        f"in the degree-{degree} oracle slice"
    )


def _torus_monomials(
    linear, degree: int, component: int | None, used: int, limit: int
) -> tuple[list, int]:
    """The x2-free degree-d monomials with the torus character of the given
    component, in descending order, and the count that `limit` bounds.

    component None means weight zero (polynomial functions); otherwise the
    stored component index (0, 1 for x; 2+j for z_{j+1}).  A torus weight
    reads only the z/zb exponents, so the walk picks the exponents a, b of
    z_j, zb_j block by block and gives the remaining degree to x1.  Block j
    moves weight row t by w_t (a - b), so the walk loops over the sum
    s = a + b and the difference c = a - b, and takes only the c (of the
    parity of s) that leave a weight the later blocks can still reach with
    the degree left; where they carry no weight of a row, that fixes c.  At
    the last block no block follows, so c is fixed, and each s of c's
    parity from |c| to the degree left is one monomial.  So every branch it
    takes is reachable, and its work is bounded by the monomials it
    stores.  A monomial whose x1 exponent is e stands for the e + 1
    admissible monomials x1^p x2^(e - p) of its z part, so it counts e + 1,
    and the walk raises ResourceLimit once `used` plus the count would pass
    `limit`, checked before each monomial is stored.  At weight zero it
    first counts the monomials x1^p x2^q |z1|^(2k), always admissible: sum
    over k <= d/2 of (d - 2k + 1), which is (m + 1)(d + 1 - m) for
    m = d // 2; if those alone pass the limit, the walk would only reach
    the same verdict later, so it is not started.
    """
    rows = linear.torus_weight_rows()
    nblocks = linear.nblocks
    last = nblocks - 1
    targets = tuple(
        0 if component is None else linear.component_weight(component, weights)
        for weights in rows
    )
    if not any(targets):
        half = degree // 2
        if used + (half + 1) * (degree + 1 - half) > limit:
            raise _slice_limit(limit, degree)
    # reach[j][t]: the most one unit of degree in blocks j.. moves weight t
    reach = [
        [max((abs(w) for w in weights[j:]), default=0) for weights in rows]
        for j in range(nblocks + 1)
    ]
    if any(abs(n) > degree * r for n, r in zip(targets, reach[0])):
        return [], 0
    out: list = []
    count = 0

    def walk(j: int, left: int, zpart: tuple, need: tuple):
        nonlocal count
        moves = [weights[j] for weights in rows]
        if j == last:
            # no block follows, so each row asks w c = n: c is fixed where
            # the block carries weight, and s runs over the |c| <= s <= left
            # of c's parity, each s a monomial
            lo, hi = -left, left
            for n, w in zip(need, moves):
                if w < 0:
                    n, w = -n, -w
                if w:
                    lo = max(lo, -(-n // w))
                    hi = min(hi, n // w)
                elif n:
                    return
            for c in range(lo, hi + 1):
                for s in range(left - (left - c) % 2, abs(c) - 1, -2):
                    count += left - s + 1
                    if used + count > limit:
                        raise _slice_limit(limit, degree)
                    out.append((left - s, 0) + zpart + ((s + c) // 2, (s - c) // 2))
            return
        for s in range(left, -1, -1):
            rest = left - s
            lo, hi = -s, s
            # |n - w c| <= rest * r for each row, an interval of c
            for n, w, r in zip(need, moves, reach[j + 1]):
                slack = rest * r
                if w < 0:
                    n, w = -n, -w
                if w:
                    lo = max(lo, -((slack - n) // w))
                    hi = min(hi, (n + slack) // w)
                elif abs(n) > slack:
                    hi = lo - 1
            hi -= (hi - s) % 2
            for c in range(hi, lo - 1, -2):
                walk(
                    j + 1,
                    rest,
                    zpart + ((s + c) // 2, (s - c) // 2),
                    tuple(n - w * c for n, w in zip(need, moves)),
                )

    walk(0, degree, (), targets)
    out.sort(reverse=True)
    return out, count


# -- the orbit sums of a slice ------------------------------------------------
#
# A row is a `vectorize` vector, keyed (component, (degree, monomial),
# part): the component is the stored one (-1 for a bare polynomial; 0, 1
# for x1, x2; 1 + j for z_j).  A row's first key is one of its last
# parameter, whose component and part it reads.


def _real_parts(comp: int, degree: int, mono: Monomial) -> tuple:
    """The rows of mono + conj and i (mono - conj) in component comp, or of
    mono alone when it is its own conjugate, as the naive oracle takes the
    real-valued parameters; mono is the larger of the two."""
    conj = conj_monomial(mono)
    if conj == mono:
        return ({(comp, (degree, mono), 0): 1},)
    key, other = (degree, mono), (degree, conj)
    return (
        {(comp, key, 0): 1, (comp, other, 0): 1},
        {(comp, key, 1): 1, (comp, other, 1): -1},
    )


def _equivariant_basis(linear, degree: int, kind: str, limit: int) -> tuple[list, int]:
    """E_d's basis as rows, in the order of their last parameters, and the
    count of (component, monomial) pairs that `limit` bounds.

    One walk of the x2-free weight-zero monomials a gives the functions,
    and both x records of the maps: (0, a, 0), and (x1 b, x2 b, 0) for
    x1 b = a.  Each x record is filed under its x2 component's monomial, a
    or x2 b, whose parameters come last, and x1 and x2 count apiece.
    """
    weight_zero, count = _torus_monomials(linear, degree, None, 0, limit)
    larger = [m for m in weight_zero if m >= conj_monomial(m)]
    if kind in FUNCTION_KINDS:
        return [row for m in larger for row in _real_parts(-1, degree, m)], count
    used = 2 * count
    if used > limit:
        raise _slice_limit(limit, degree)
    x_records = sorted(
        [(a, None) for a in larger] + [((a[0] - 1, 1) + a[2:], a) for a in larger if a[0]],
        reverse=True,
    )
    rows = []
    for last, x1_part in x_records:
        parts = _real_parts(1, degree, last)
        if x1_part is not None:
            parts = [{**x2, **x1} for x2, x1 in zip(parts, _real_parts(0, degree, x1_part))]
        rows += parts
    for comp in range(2, linear.nblocks + 2):
        monos, found = _torus_monomials(linear, degree, comp, used, limit)
        used += found
        for mono in monos:
            rows += ({(comp, (degree, mono), 0): 1}, {(comp, (degree, mono), 1): 1})
    return rows, used


def _sign(element: SignedElement, kind: str) -> int:
    """s in the element's identity: its sign for the signed kinds, else 1."""
    return element.sign if kind in ("anti_invariant", "reversible_equivariant") else 1


def _signed_permutation(index: int, element: SignedElement) -> tuple[int, int]:
    """The coordinates that the element negates, as a bitmask, and 1 when it
    sends each z_j to +-zb_j, 0 when to +-z_j.

    Raises DimensionError, naming the element, unless its entries are +-1
    and it sends x1 to +-x1, x2 to +-x2, and either every z_j to +-z_j or
    every z_j to +-zb_j.
    """
    rows = element.rows
    conj = int(rows[2][0][0] != 2)  # the image of z_1
    negated = 0
    for i, ((j, a),) in enumerate(rows):
        if j != (i ^ conj if i > 1 else i) or a.im or a.re not in (1, -1):
            raise DimensionError(
                f"element {index} {element.name or element.rows} is not a signed "
                "permutation keeping x1, x2 and every z_j, or conjugating every z_j; "
                "the oracle slices no other"
            )
        negated |= (a.re < 0) << i
    return negated, conj


# -- the kept orbit rows of a slice -------------------------------------------


class KeptSystem(NamedTuple):
    """The orbit rows of the shear's and some elements' slice, which the
    slices share and nothing changes; the (component, monomial) pairs, what
    `limit` bounds; the `_parity` of each row; and `slices`, the slice of
    each set of picked rows, keyed by their indices, made the first time it
    is asked for."""

    rows: tuple
    pairs: int
    parities: tuple
    slices: dict


def _parity(key) -> int:
    """The coordinates whose sign flip changes the sign of the element of
    column key (c, (degree, m), part), as a bitmask: those of odd exponent
    in m, and, for a map, c's own coordinate (2c - 2 for z_(c-1))."""
    comp, (_, mono), _ = key
    mask = sum(1 << i for i, e in enumerate(mono) if e & 1)
    return mask if comp < 0 else mask ^ 1 << (comp if comp < 2 else 2 * comp - 2)


def _kept_system(linear, elements: tuple, degree: int, kind: str, limit: int):
    """The orbit sums of the shear and `elements`: the `KeptSystem` and its
    size in `KEPT_SYSTEMS`, its (component, monomial) pairs.  An element
    keeps a row of E_d's basis when its character there, (-1) to the number
    of negated coordinates in the row's `_parity`, and -1 more for an
    imaginary part under a conjugating element, is its s."""
    actions = [
        (*_signed_permutation(i, el), _sign(el, kind) < 0) for i, el in enumerate(elements)
    ]
    basis, pairs = _equivariant_basis(linear, degree, kind, limit)
    rows, parities, record = [], [], None
    for row in basis:
        key = next(iter(row))
        # a record's real and imaginary rows are adjacent and share a parity
        if key[:2] != record:
            record, parity = key[:2], _parity(key)
        if all(
            (parity & negated).bit_count() + (key[2] & conj) & 1 == odd
            for negated, conj, odd in actions
        ):
            rows.append(row)
            parities.append(parity)
    return KeptSystem(tuple(rows), pairs, tuple(parities), {}), pairs


class SystemMemo:
    """What `verify` reuses between calls, bounded by the sizes of its entries.

    `get(key, make)` returns the (entry, size) kept under `key`, else the
    pair that `make()` returns.  Entries go in least recently used order,
    and the oldest go out while the sizes of all of them pass `budget`; an
    entry counts at least 1, so one of size 0 (a module slice of no
    products) is bounded too, and one bigger than the budget is made and
    used, and not kept.  A miss makes its entry outside the lock, so
    threads that miss on one key at once each make it, and the first to
    finish keeps its copy, which the others then use.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._entries: OrderedDict = OrderedDict()  # key -> (entry, size)
        self._lock = Lock()
        self.size = self.hits = self.misses = 0

    def get(self, key, make) -> tuple:
        with self._lock:
            kept = self._entries.get(key)
            if kept is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return kept
            self.misses += 1
        made = make()
        weight = max(made[1], 1)
        if weight > self.budget:
            return made
        with self._lock:
            kept = self._entries.setdefault(key, made)
            if kept is made:
                self.size += weight
                while self.size > self.budget:
                    self.size -= max(self._entries.popitem(last=False)[1][1], 1)
        return kept


# the most that `KEPT_SYSTEMS` holds in all: a kept system counts its
# (component, monomial) pairs, some 310 bytes each with the slices and
# canonical bases it keeps, and a module slice its products, some 490 bytes
# a kept row, so at most some 10 MB.  tracemalloc: the 19 jobs of the
# certify_deep benchmark pool keep 2,052 pairs in 0.63 MB and 998 products
# in 0.49 MB; a res_n1n2_C3 (5,7) module sweep over degrees 1..49 leaves
# its last slice, 15,564 products in 7.5 MB
SYSTEM_BUDGET = DEFAULT_MONOMIAL_LIMIT // 10

KEPT_SYSTEMS = SystemMemo(SYSTEM_BUDGET)


def _flip(elements: Sequence[SignedElement]) -> int | None:
    """The coordinates that D = B A negates, as a bitmask, for the last two
    elements A and B, when D is a diagonal sign flip that scales x1 and x2
    alike; else None, and for fewer than two elements.  Read off the
    monomial rows: row i of D is B's entry b at column j times A's entry a
    at column k of row j, at column k, multiplied out on the parts of b and
    a.  D commutes with every element the oracle slices
    (`_signed_permutation`), so no commutation is checked."""
    if len(elements) < 2:
        return None
    before = elements[-2].rows
    flip = 0
    for i, ((j, b),) in enumerate(elements[-1].rows):
        ((k, a),) = before[j]
        re = b.re * a.re - b.im * a.im
        if k != i or b.re * a.im + b.im * a.re or re not in (1, -1):
            return None
        flip |= (re < 0) << i
    return flip if (flip ^ flip >> 1) & 1 == 0 else None


def slice_space(
    context: GroupContext,
    degree: int,
    kind: str,
    limit: int = DEFAULT_MONOMIAL_LIMIT,
) -> DegreeSlice:
    """Exact basis of the degree-d members of the requested class.

    `limit` bounds the (component, torus-admissible monomial) pairs of the
    degree-d space, the unknowns of the defining identities up to the
    real/imaginary split.  The orbit rows come from `KEPT_SYSTEMS`: of
    every element but the last when the last two differ by a diagonal sign
    flip D (`_flip`), and the slice is then the rows of D's character
    s_A s_B, those whose `_parity` meets D's negated coordinates in a set
    of the parity that s_A s_B asks for; of every element otherwise, and
    the slice is all its rows.  The system keeps the slice of the rows
    picked, so a later call that picks them gets the same slice, its
    canonical basis included.
    """
    if degree < 0:
        raise DimensionError("degree must be nonnegative")
    if kind not in FUNCTION_KINDS + MAP_KINDS:
        raise DimensionError(f"unknown membership kind {kind!r}")
    linear = _linear_part_of(context)
    elements = context.elements
    if any(el.size != linear.nvars for el in elements):
        raise DimensionError(f"every element must act on {linear.nvars} coordinates")
    flip = _flip(elements)
    key = (linear, tuple(elements if flip is None else elements[:-1]), degree, kind)
    system, _ = KEPT_SYSTEMS.get(key, lambda: _kept_system(*key, limit))
    if system.pairs > limit:
        raise _slice_limit(limit, degree)
    picked = tuple(range(len(system.rows)))
    if flip is not None:
        odd = _sign(elements[-2], kind) != _sign(elements[-1], kind)
        parities = system.parities
        picked = tuple(i for i in picked if (parities[i] & flip).bit_count() & 1 == odd)
    span = system.slices.get(picked)
    if span is None:
        rows = tuple(system.rows[i] for i in picked)
        span = system.slices.setdefault(picked, DegreeSlice(degree, kind, rows, linear.nvars))
    return span


# -- module slices and span comparison ----------------------------------------


def _module_limit(limit: int, degree: int) -> ResourceLimit:
    return ResourceLimit(f"module slice at degree {degree} exceeded {limit} products")


def module_slice(genset, degree: int, limit: int = DEFAULT_MONOMIAL_LIMIT) -> DegreeSlice:
    """Degree-d part of the module spanned by the generator set.

    Spans {m * G} over all module generators G and all monomials m in the
    ring basis with matching total degree, reduced to its canonical basis:
    the `symmetry_ops.module_rows` over the generator set's one
    `ProductTable`.  `KEPT_SYSTEMS` keeps the slice, with its count of
    products as its size, under the set's ring basis and generators (by
    value) and the degree, so equal sets share it.  More than `limit`
    products raise `ResourceLimit`, kept or not, and such a slice is not
    made.
    """

    def make():
        count = sum(len(genset.products[degree - d]) for _, d in genset.gens)
        if count > limit:
            raise _module_limit(limit, degree)
        rows = tuple(Echelon(module_rows(genset.products, genset.gens, degree)).reduced_rows())
        nvars = genset.context.linear_part.nvars
        return DegreeSlice(degree, "reversible_equivariant", rows, nvars, reduced=True), count

    key = ("module", genset.ring_basis, genset.module_generators, degree)
    span, count = KEPT_SYSTEMS.get(key, make)
    if count > limit:
        raise _module_limit(limit, degree)
    return span


class SpanComparison(NamedTuple):
    equal: bool
    witness: object | None = None
    missing_from: str = ""


def spans_equal(a: DegreeSlice, b: DegreeSlice) -> SpanComparison:
    """Exact equality of the two spans; a witness element on failure.

    Decided on the canonical bases, read on every call: the reduced
    row-echelon basis of a span is unique, so the spans are equal exactly
    when the two are.  Only a failure reads the sorted bases, to name the
    first element of b outside span(a), else of a outside span(b).
    """
    if a.degree != b.degree or a.kind != b.kind:
        raise DimensionError("slices of different degree or kind are not comparable")
    if a.canonical == b.canonical:
        return SpanComparison(True)
    span_a = Echelon(a.canonical)
    for e in b.basis:
        if not span_a.contains(vectorize(e)):
            return SpanComparison(False, e, "a")
    span_b = Echelon(b.canonical)
    return next(
        (SpanComparison(False, e, "b") for e in a.basis if not span_b.contains(vectorize(e))),
        SpanComparison(True),
    )
