"""Degree-graded brute-force computation of symmetry-constrained spaces.

Independent certification path: instead of transporting generators, each
degree slice is computed from scratch as the exact rational nullspace of
the defining linear identities.

A slice is kept as rows: `DegreeSlice.rows` holds independent vectors in
the column keys of `linalg.vectorize`, and its dimension is their count.
The sorted Polynomial/PolyMap `basis` is derived from the rows only when
something reads it (the golden artifacts, the tests, or a witness), so a
`verify` run that certifies builds no Polynomial or PolyMap here.

`slice_space` compiles its system on exponent tuples and exact integers,
once per key (see below).  A torus weight reads only the z/zb exponents,
so a walk over the rotation blocks enumerates only the torus-admissible
monomials, and the resource bound counts those (component, monomial)
pairs: the unknowns actually solved for.  Each parameter is one or two
records (component, monomial, coefficient).  The rows of the system are
`(tag, component, monomial, part) -> {parameter: value}`, with ints, and
Fractions only where an element has a denominator.  The shear's rows come
first: each record's image under x1 d/dx2 is an exponent shift, with no
substitution.  A parameter alone in a one-entry shear row is forced to
zero, and is dropped.  Every element of the group is a signed monomial
map, so each record of a parameter left has its image under
g.A - sigma A.g (the one-term images of `poly.Substitution`, and
`output_columns` for A.g) written straight into the rows.  Those rows and
the multi-entry shear rows, less the forced parameters, go to
`linalg.Echelon`.  A row left with one entry forces its parameter too,
and each such parameter goes in once, as a unit row.  The nullspace is
taken over the parameters left, in their order.  It is the nullspace of
the whole system: each forced column is a pivot of it and vanishes on
every solution, and every other column keeps its place in the order.  So
the free columns are the same, and so is the unique reduced-echelon
basis, whatever the order of the rows.  Each nullspace vector becomes a
slice row through the fixed columns of the parameters.

A solved system is kept: `KEPT_SYSTEMS`, a `SystemMemo`, holds its slice
rows under the key (linear part, solved elements, degree, kind), and the
slices share them: nothing changes a row once it is made.  Let A and B be
the last two elements of a context.  When D = B A is a diagonal sign flip
that scales x1 and x2 alike and commutes with every element but B (every
full context: psi(a) = D(a) phi), only the elements before B are
solved.  Each parameter, and so each row of their system, then has one
D-character: chi_D(m) d_c for a record's monomial m and component c, the
product of D's entries to the exponents of m times D's entry at c (1 for
a function).  So the system splits by character, and each vector of its
canonical nullspace has one.  A solution of character chi meets B's
condition iff chi = s_A s_B, s an element's sign for the signed kinds
and 1 otherwise.  So the slice is the kept rows of that character, in
their order: the canonical nullspace of the whole system, whose free
columns are the free columns of that character.  D's entries are +-1,
so the character is -1 to the number of D's negated coordinates among
the odd ones of the row's key, a parity that a bitmask per kept row
gives (`_parity`).  Another sign class of the linear part costs that
filter, and no row of B.  Any other context solves all its elements and
keeps every row.  The system also keeps the slice of each set of rows
picked, and a member of a seen orbit picks the same rows, so it gets the
same slice, with its canonical basis built.  The limit is not in the
key: a hit raises the `ResourceLimit` a miss would, with the same
message, when the kept system's (component, monomial) pairs pass the
caller's limit.

`module_slice` reduces `symmetry_ops.module_rows` over the one
`ProductTable` the generator set keeps to the span's canonical basis,
and `KEPT_SYSTEMS` keeps it, with its count of products, under the set's
ring basis and generators, by value, and the degree: a sweep over
degrees builds each product once, and a seen problem builds none.  A
hit raises a miss's `ResourceLimit` when the count passes the caller's
limit.  The one memo is bounded by SYSTEM_BUDGET: a system counts its
unknowns, a module slice its products, and every entry at least 1, a
slice of no products too.  It drops the least recently used entries
first, of either kind, and makes an entry bigger than the budget for the
call and does not keep it.  Its bookkeeping runs under a lock; two
threads that miss on one key at once both make the entry, and one copy
is kept.  `spans_equal` compares the
canonical bases of the two sides (`DegreeSlice.canonical`), on every
call: the reduced row-echelon basis of a span is unique.  It eliminates again only on a
failure, to name a witness.  So a `verify` job on a seen linear part and
orbit runs the character filter and the comparison at each degree, and
eliminates nothing.

The tests hold the independent reference, a naive oracle that shares
neither this row assembly nor `linalg.Echelon`, and cross-check the two
paths, the compiled rows against PolyMap rows, and both against the
membership predicates.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
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
from .poly import (
    Frozen,
    Monomial,
    Substitution,
    conj_monomial,
    nblocks_of,
    output_columns,
)
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
    first time it is read.  `basis` is the elements of the rows, sorted by
    `sort_key`, built the first time it is read.  A slice is frozen, and
    equality and the hash read every field but `reduced`.
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
        return self.rows if self.reduced else tuple(Echelon(self.rows).reduced_rows())

    @cached_property
    def basis(self) -> tuple:
        if self.kind in FUNCTION_KINDS:
            elements = [polynomial_from_vector(row, self.nvars) for row in self.rows]
        else:
            nblocks = nblocks_of(self.nvars)
            elements = [polymap_from_vector(row, nblocks) for row in self.rows]
        return tuple(sorted(elements, key=lambda e: e.sort_key()))


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
) -> list:
    """Degree-d monomials with the torus character of the given component.

    component None means weight zero (polynomial functions); otherwise the
    stored component index (0, 1 for x; 2+j for z_{j+1}).  A torus weight
    reads only the z/zb exponents, so the walk picks the exponents a, b of
    z_j, zb_j block by block and spreads the remaining degree over x1 and
    x2 in every way.  Block j moves weight row t by w_t (a - b), so the walk
    loops over the sum s = a + b and the difference c = a - b, and takes
    only the c (of the parity of s) that leave a weight the later blocks can
    still reach with the degree left; where they carry no weight of a row,
    that fixes c.  So every branch it takes is reachable, and its work is
    bounded by the monomials it stores.  Raises ResourceLimit once `used`
    plus the monomials found would pass `limit`, checked before each leaf
    is stored.  At weight zero it first counts the monomials
    x1^p x2^q |z1|^(2k), always admissible: sum over k <= d/2 of
    (d - 2k + 1), which is (m + 1)(d + 1 - m) for m = d // 2; if those
    alone pass the limit, the walk would only reach the same verdict later,
    so it is not started.
    """
    rows = linear.torus_weight_rows()
    nblocks = linear.nblocks
    targets = tuple(
        0 if component is None else linear.component_weight(component, weights)
        for weights in rows
    )

    def over_limit(count: int):
        if used + count > limit:
            raise _slice_limit(limit, degree)

    if nblocks and not any(targets):
        half = degree // 2
        over_limit((half + 1) * (degree + 1 - half))
    # reach[j][t]: the most one unit of degree in blocks j.. moves weight t
    reach = [
        [max((abs(w) for w in weights[j:]), default=0) for weights in rows]
        for j in range(nblocks + 1)
    ]
    if any(abs(n) > degree * r for n, r in zip(targets, reach[0])):
        return []
    out: list = []

    def walk(j: int, left: int, zpart: tuple, need: tuple):
        if j == nblocks:
            # reach is 0 past the last block, so need is 0 here
            over_limit(len(out) + left + 1)
            out.extend((a, left - a) + zpart for a in range(left, -1, -1))
            return
        moves = [weights[j] for weights in rows]
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
    return out


# -- the compiled slice system ------------------------------------------------
#
# A parameter is a tuple of records (component, monomial, (re, im)): the
# component is the stored one (-1 for a bare polynomial; 0, 1 for x1, x2;
# 1 + j for z_j) and the coefficient parts are the canonical GaussianRational
# parts, 0 or +-1.  A row of the system is keyed (tag, component, monomial,
# part): the tag names the defect operator, and the rest is a column key of
# `vectorize` less the degree of its grlex key, which every monomial of a
# slice system shares.


def _real_records(comp: int, monos: Sequence[Monomial]) -> list[tuple]:
    """Real-valued basis on a conjugation-closed set, as the naive oracle's.

    The monomials share one degree, so their tuple order is grlex order.
    """
    out = []
    for mono in sorted(monos, reverse=True):
        conj = conj_monomial(mono)
        if conj == mono:
            out.append(((comp, mono, (1, 0)),))
        elif mono > conj:
            out.append(((comp, mono, (1, 0)), (comp, conj, (1, 0))))
            out.append(((comp, mono, (0, 1)), (comp, conj, (0, -1))))
    return out


def _parameters(linear, degree: int, kind: str, limit: int) -> tuple[list[tuple], int]:
    """Parameter records of a slice, the torus-admissible naive parameters in
    order, and the count of (component, monomial) pairs that `limit` bounds.

    The order fixes the columns, and with them the canonical nullspace: the
    naive oracle's descending grlex order, which on monomials of one degree
    is descending tuple order.  x1 and x2 both have weight zero, so they
    share one walk, whose monomials count once for each.
    """
    weight_zero = _torus_monomials(linear, degree, None, 0, limit)
    if kind in FUNCTION_KINDS:
        return _real_records(-1, weight_zero), len(weight_zero)
    used = 2 * len(weight_zero)
    if used > limit:
        raise _slice_limit(limit, degree)
    params = _real_records(0, weight_zero) + _real_records(1, weight_zero)
    for comp in range(2, linear.nblocks + 2):
        monos = _torus_monomials(linear, degree, comp, used, limit)
        used += len(monos)
        for mono in sorted(monos, reverse=True):
            params.append(((comp, mono, (1, 0)),))
            params.append(((comp, mono, (0, 1)),))
    return params, used


def _emit(rows: dict, tag: str, comp: int, mono: Monomial, k: int, re, im):
    """Add re to rows[(tag, comp, mono, 0)][k] and im to rows[(tag, comp, mono, 1)][k].

    An entry that cancels is dropped, and so is a row left empty.
    """
    for part, value in ((0, re), (1, im)):
        if not value:
            continue
        key = (tag, comp, mono, part)
        row = rows.get(key)
        if row is None:
            rows[key] = {k: value}
        elif value := value + row.get(k, 0):
            row[k] = value
        elif len(row) > 1:
            del row[k]
        else:
            del rows[key]


def _shear_rows(params) -> dict:
    """The shear's rows, ("shear", component, monomial, part) -> {parameter: value}.

    x1 d/dx2 applied to every component, less g_x1 in the x2 component:
    exponent shifts, with no substitution.
    """
    rows: dict = {}
    for k, records in enumerate(params):
        for comp, mono, (cr, ci) in records:
            e = mono[1]
            if e:
                _emit(rows, "shear", comp, (mono[0] + 1, e - 1) + mono[2:], k, e * cr, e * ci)
            if comp == 0:
                _emit(rows, "shear", 1, mono, k, -cr, -ci)
    return rows


def _sign(element: SignedElement, kind: str) -> int:
    """s in the element's identity: its sign for the signed kinds, else 1."""
    return element.sign if kind in ("anti_invariant", "reversible_equivariant") else 1


def _group_rows(elements: Sequence[SignedElement], kind: str, params, live) -> dict:
    """The rows of the given group elements on the parameters in `live`.

    Keyed (tag, component, monomial, part) -> {parameter: value}.  Element
    idx gives tag f"el{idx}": p(Av) - s p on functions and g(Av) - s A g(v)
    on maps, s the element's sign for the anti-invariant and reversible
    kinds and 1 otherwise.  With every parameter live, these rows and the
    shear's, transposed, give parameter k's entries as `vectorize` of the
    naive path's images of that parameter.
    """
    functions = kind in FUNCTION_KINDS
    rows: dict = {}
    for idx, el in enumerate(elements):
        tag = f"el{idx}"
        sign = _sign(el, kind)
        substitute = Substitution(el.action)
        images: dict = {}  # monomial -> its one-term image, or no term
        # stored component -> the (output component, entry) pairs of A's
        # column at the full component, and at its conjugate for z
        columns = output_columns(el.action)
        ncomps = len(columns) // 2 + 1
        direct = {c: columns[c if c < 2 else 2 * c - 2] for c in range(ncomps)}
        conjugate = {c: columns[2 * c - 1] for c in range(2, ncomps)}
        for k in live:
            for comp, mono, (cr, ci) in params[k]:
                image = images.get(mono)
                if image is None:
                    image = images[mono] = {}
                    substitute.add_image(image, mono, 1, 0)
                for m, (ar, ai) in image.items():
                    _emit(rows, tag, comp, m, k, cr * ar - ci * ai, cr * ai + ci * ar)
                if functions:
                    _emit(rows, tag, comp, mono, k, -sign * cr, -sign * ci)
                    continue
                for out, (ar, ai) in direct[comp]:
                    _emit(rows, tag, out, mono, k, -sign * (ar * cr - ai * ci),
                          -sign * (ar * ci + ai * cr))
                if comp >= 2:
                    conj = conj_monomial(mono)
                    for out, (ar, ai) in conjugate[comp]:
                        _emit(rows, tag, out, conj, k, -sign * (ar * cr + ai * ci),
                              -sign * (ai * cr - ar * ci))
    return rows


def _solution_row(params, degree: int, solution: dict) -> dict:
    """The `vectorize` row of the sum of q times parameter k over {k: q}.

    No two parameters share a column key, so each entry is one product.
    """
    return {
        (comp, (degree, mono), part): q * value
        for k, q in solution.items()
        for comp, mono, parts in params[k]
        for part, value in enumerate(parts)
        if value
    }


# -- the kept solutions of a slice system --------------------------------------


class KeptSystem(NamedTuple):
    """The slice rows of the canonical nullspace of the shear's and some
    elements' rows, which the slices share and nothing changes; the
    (component, monomial) pairs, what `limit` bounds; the `_parity` of
    each row; and `slices`, the slice of each set of picked rows, keyed by
    their indices, made the first time it is asked for."""

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
    """Solve the slice system of the shear and `elements`: the `KeptSystem`
    and its count of parameters, its size in `KEPT_SYSTEMS`."""
    params, pairs = _parameters(linear, degree, kind, limit)
    shear = _shear_rows(params)
    forced = {k for row in shear.values() if len(row) == 1 for k in row}
    live = [k for k in range(len(params)) if k not in forced]
    # the multi-entry shear rows lose their forced parameters; the group
    # rows are built on live parameters only and hold none.  A row left
    # with one entry forces its parameter, which goes in once, as a unit
    # row ahead of the rest
    kept = ({k: v for k, v in row.items() if k not in forced} for row in shear.values())
    units: set = set()
    others = []
    for row in itertools.chain(_group_rows(elements, kind, params, live).values(), kept):
        if len(row) == 1:
            units.update(row)
        elif row:
            others.append(row)
    solutions = Echelon([{k: 1} for k in sorted(units)] + others).nullspace(live)
    rows = tuple(_solution_row(params, degree, sol) for sol in solutions)
    parities = tuple(_parity(next(iter(row))) for row in rows)
    return KeptSystem(rows, pairs, parities, {}), len(params)


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


# the most that `KEPT_SYSTEMS` holds in all: a solved system counts its
# unknowns (parameters), some 200 bytes each with the slices and canonical
# bases it keeps, and a module slice its products, some 480 bytes a kept
# row, so at most some 10 MB.  tracemalloc: the 19 jobs of the
# certify_deep benchmark pool keep 3,088 unknowns and 998 products in
# 1.6 MB; a res_n1n2_C3 (5,7) module sweep over degrees 1..49 leaves its
# last slice, 15,564 products in 7.5 MB
SYSTEM_BUDGET = DEFAULT_MONOMIAL_LIMIT // 10

KEPT_SYSTEMS = SystemMemo(SYSTEM_BUDGET)


def _flip(elements: Sequence[SignedElement]) -> int | None:
    """The coordinates that D = B A negates, as a bitmask, for the last two
    elements A and B, when D is a diagonal sign flip that scales x1 and x2
    alike and commutes with every element but B; else None, and for fewer
    than two elements.  Read off the monomial rows: row i of D is B's entry
    b at column j times A's entry a at column k of row j, at column k,
    multiplied out on the parts of b and a."""
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
    commutes = all(
        (flip >> i ^ flip >> j) & 1 == 0
        for el in elements[:-1]
        for i, ((j, _),) in enumerate(el.rows)
    )
    return flip if (flip ^ flip >> 1) & 1 == 0 and commutes else None


def slice_space(
    context: GroupContext,
    degree: int,
    kind: str,
    limit: int = DEFAULT_MONOMIAL_LIMIT,
) -> DegreeSlice:
    """Exact basis of the degree-d members of the requested class.

    `limit` bounds the (component, admissible monomial) pairs, which is the
    number of unknowns solved for up to the real/imaginary split.  The
    solved system comes from `KEPT_SYSTEMS`: of every element but the last
    when the last two differ by a diagonal sign flip D (`_flip`), and the
    slice is then the rows of D's character s_A s_B, those whose `_parity`
    meets D's negated coordinates in a set of the parity that s_A s_B asks
    for; of every element otherwise, and the slice is all its rows.  The
    system keeps the slice of the rows picked, so a later call that picks
    them gets the same slice, its canonical basis included.
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
