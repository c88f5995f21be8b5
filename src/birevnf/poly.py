"""Exact multivariate polynomial arithmetic in mixed real/complex coordinates.

Everything downstream computes over the coordinate tuple

    (x1, x2, z1, zb1, ..., zn, zbn)

where zb_j is the formal conjugate of z_j.  A monomial is an exponent tuple
of length 2n+2 in that fixed order; a polynomial maps monomials to Gaussian
rational coefficients.  Carrying zb_j as an explicit variable makes torus
weights integer-linear in the exponents, so invariance checks reduce to
lattice conditions, while a reality constraint on coefficients recovers
real-valued functions of (x, z).

All values are immutable after construction and safe to share between
threads.  The term order is graded lexicographic (degree first, then the
exponent tuple), fixed once so rendering and iteration are deterministic.
No floating point is used anywhere: a GaussianRational rejects float parts
and keeps each part canonical, an int when it is integral and a Fraction
only when its denominator is above 1, so the common small-integer
coefficients are computed on ints.

A linear map exists only as sparse rows, each row's (column, entry) pairs
for its nonzero entries, and it is monomial: every linear map of the
problem (the reversing involutions, their products, the shear and torus
generators) sends each variable to a multiple of one variable or to 0.
That and the z/zb pairing are checked once, when a LinearAction is built
from its rows (a SignedElement builds its own); the substitution methods
take only a LinearAction.  No product of two actions is built as an
action: `compose` gives its rows as (column, re, im) triples on the
entries' int or Fraction parts, for the involution checks to compare.

The span building of the pipeline and of the oracle uses one term kernel,
kept here: exponent-tuple terms with (re, im) parts (`add_term`,
`mul_terms`), the one-term images of monomials under a LinearAction
(`Substitution`), its action on a map's output (`output_columns`,
`add_output_image`), and the conversions between terms and
Polynomial/PolyMap.  `group.membership` reads a Polynomial's terms
(`Polynomial.terms`) and an element's rows directly, outside the kernel.
`Polynomial.substitute_linear` and `PolyMap.apply_linear` are not called
by the engine: they stay the independent reference that the tests compare
the kernel and membership against.  The module product of a PolyMap by a
Polynomial, the composition g . A of a PolyMap with a linear map and the
partial derivative of a Polynomial are kept with the tests, the only
place they are used.

One family of functions renders coefficients, monomials, polynomials and
maps, as text (the form the parser reads back) or as LaTeX.  The two differ
only through a small immutable `Notation` table with two instances, TEXT
and LATEX: how fractions, i, variable names and exponents are written, the
product joiner, the brackets and the tuple separator.  Sign extraction,
unit-coefficient elision and the bracketing of mixed complex coefficients
are written once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import DimensionError, IncompatibleMatrix

Monomial = tuple[int, ...]


class Frozen:
    """A value whose fields `__init__` sets once, in the instance dict or by
    `object.__setattr__`; assigning to one later raises AttributeError.
    Equality, within one class, and the hash read the tuple `_value()`.
    Not a frozen dataclass: importing `dataclasses` loads `inspect`, `ast`
    and `dis`, which every console job, a fresh process, would pay for."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())


def _canonical_part(q):
    """An exact rational as an int when it is integral, else as a Fraction."""
    if type(q) is not Fraction:
        if isinstance(q, float):
            raise TypeError("GaussianRational parts must be exact, not float")
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class GaussianRational:
    """A Gaussian rational a + b*i with exact canonical parts.

    Each part is a Python int when it is integral and a Fraction only when
    its denominator is above 1, so the common small-integer coefficients
    stay on machine-integer arithmetic.  Equality and hashing do not see
    the difference (hash(Fraction(n)) == hash(n)).  Float parts are
    rejected with TypeError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not int:
            re = _canonical_part(re)
        if type(im) is not int:
            im = _canonical_part(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        re, im = other.re, other.im
        norm = re * re + im * im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # Fraction(a, norm), never a / norm, which is a float on two ints
        return self * GaussianRational(Fraction(re, norm), Fraction(-im, norm))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return ONE / self ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def sort_key(self):
        return (self.re.numerator, self.re.denominator, self.im.numerator, self.im.denominator)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return render_coefficient(self)


def _coerce(value) -> GaussianRational:
    """value as a GaussianRational; 0, 1 and -1, the entries of the signed
    permutations, as the shared ZERO, ONE and MINUS_ONE (the value is
    immutable, so sharing it is safe)."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        if not value:
            return ZERO
        if value == 1:
            return ONE
        if value == -1:
            return MINUS_ONE
        return GaussianRational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


class Notation(NamedTuple):
    """What text and LaTeX write differently; TEXT and LATEX are the instances.

    Format strings take, in order: numerator and denominator (fraction), the
    index k of x_k (x), a symbol and its index (subscript), a base and its
    exponent (power).
    """

    fraction: str
    imaginary: str  # joins a number to i
    x: str
    zbar: str  # symbol of a conjugate coordinate
    subscript: str
    power: str
    times: str  # joins the factors of a product
    left: str  # opening bracket
    right: str
    separator: str  # between the components of a tuple

    def bracket(self, text: str) -> str:
        return f"{self.left}{text}{self.right}"


TEXT = Notation(
    fraction="{}/{}", imaginary="*i", x="x{}", zbar="zb", subscript="{}{}",
    power="{}^{}", times="*", left="(", right=")", separator=", ",
)
LATEX = Notation(
    fraction="\\tfrac{{{}}}{{{}}}", imaginary="i", x="x_{}", zbar="\\bar{z}",
    subscript="{}_{{{}}}", power="{}^{{{}}}", times="", left="\\left(",
    right="\\right)", separator=",\\; ",
)


def render_coefficient(c: GaussianRational, notation: Notation = TEXT) -> str:
    """A Gaussian rational: 3, -1/2, i, -2*i, (1/2-3*i) in text.

    In LaTeX: 3, -\\tfrac{1}{2}, i, -2i, \\left(\\tfrac{1}{2}-3i\\right).
    """

    def rational(q: Fraction) -> str:
        if q.denominator == 1:
            return str(q.numerator)
        sign = "-" if q < 0 else ""
        return sign + notation.fraction.format(abs(q.numerator), q.denominator)

    def imaginary(q: Fraction) -> str:
        if q == 1 or q == -1:
            return "i" if q == 1 else "-i"
        return rational(q) + notation.imaginary

    if c.im == 0:
        return rational(c.re)
    if c.re == 0:
        return imaginary(c.im)
    sign = "+" if c.im > 0 else "-"
    return notation.bracket(f"{rational(c.re)}{sign}{imaginary(abs(c.im))}")


# -- monomial helpers --------------------------------------------------------
#
# Index layout: 0 -> x1, 1 -> x2, 2*j -> z_j, 2*j+1 -> zb_j (j = 1..n).


def nblocks_of(nvars: int) -> int:
    if nvars < 2 or nvars % 2:
        raise DimensionError(f"coordinate count must be 2n+2, got {nvars}")
    return (nvars - 2) // 2


def x_index(k: int) -> int:
    """Index of x_k, k in {1, 2}."""
    return k - 1


def z_index(j: int) -> int:
    """Index of z_j, j >= 1."""
    return 2 * j


def zbar_index(j: int) -> int:
    return 2 * j + 1


def conj_index(i: int) -> int:
    """Coordinate index paired under conjugation (x's are self-paired)."""
    if i < 2:
        return i
    return i + 1 if i % 2 == 0 else i - 1


def conj_monomial(mono: Monomial) -> Monomial:
    out = list(mono)
    for j in range(2, len(mono) - 1, 2):
        out[j], out[j + 1] = out[j + 1], out[j]
    return tuple(out)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def grlex_key(mono: Monomial):
    return (sum(mono), mono)


def variable_name(i: int, notation: Notation = TEXT) -> str:
    if i < 2:
        return notation.x.format(i + 1)
    symbol = "z" if i % 2 == 0 else notation.zbar
    return notation.subscript.format(symbol, i // 2)


def variable_index(name: str, nvars: int) -> int:
    if name == "x1":
        return 0
    if name == "x2":
        return 1
    if name.startswith("zb"):
        j = int(name[2:])
        idx = zbar_index(j)
    elif name.startswith("z"):
        j = int(name[1:])
        idx = z_index(j)
    else:
        raise ValueError(f"unknown variable {name!r}")
    if j < 1 or idx >= nvars:
        raise ValueError(f"variable {name!r} out of range for {nblocks_of(nvars)} blocks")
    return idx


def render_monomial(mono: Monomial, notation: Notation = TEXT) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        name = variable_name(i, notation)
        parts.append(name if e == 1 else notation.power.format(name, e))
    return notation.times.join(parts)


# -- polynomials -------------------------------------------------------------


class Polynomial:
    """Immutable sparse polynomial over the Gaussian rationals."""

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Monomial, GaussianRational] | None = None):
        clean: dict[Monomial, GaussianRational] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _coerce(coeff)
                if not coeff:
                    continue
                if len(mono) != nvars:
                    raise DimensionError(f"monomial {mono} has {len(mono)} slots, expected {nvars}")
                clean[mono] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Polynomial":
        """A polynomial owning `terms`, unchecked: each coefficient must be a
        nonzero GaussianRational and each monomial have nvars slots."""
        p = cls.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # construction helpers

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: _coerce(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        mono = [0] * nvars
        mono[index] = 1
        return cls(nvars, {tuple(mono): ONE})

    @classmethod
    def monomial(cls, nvars: int, mono: Monomial, coeff=ONE) -> "Polynomial":
        return cls(nvars, {tuple(mono): _coerce(coeff)})

    # inspection

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        return sorted(self._terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def monomials(self):
        return self._terms.keys()

    @property
    def terms(self) -> Mapping[Monomial, GaussianRational]:
        """The nonzero terms, monomial to coefficient, as a read-only view."""
        return MappingProxyType(self._terms)

    def __len__(self):
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self._terms}
        return len(degs) <= 1

    def is_real_valued(self) -> bool:
        """True iff coeff(conj m) == conj(coeff(m)) for every monomial."""
        for mono, coeff in self._terms.items():
            if self._terms.get(conj_monomial(mono), ZERO) != coeff.conjugate():
                return False
        return True

    # arithmetic

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise DimensionError("polynomials over different coordinate spaces")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = terms.get(mono, ZERO) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return Polynomial._trusted(self.nvars, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            terms: dict[Monomial, GaussianRational] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = mono_mul(m1, m2)
                    acc = terms.get(mono, ZERO) + c1 * c2
                    if acc:
                        terms[mono] = acc
                    else:
                        terms.pop(mono, None)
            return Polynomial._trusted(self.nvars, terms)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _coerce(c)
        if not c:
            return Polynomial.zero(self.nvars)
        # a product of nonzero Gaussian rationals is nonzero
        return Polynomial._trusted(self.nvars, {m: c * v for m, v in self._terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def conj(self) -> "Polynomial":
        """Formal conjugate: conjugate coefficients, swap each z_j/zb_j pair."""
        return Polynomial._trusted(
            self.nvars,
            {conj_monomial(m): c.conjugate() for m, c in self._terms.items()},
        )

    def substitute_linear(self, action: LinearAction) -> "Polynomial":
        """Compose with a linear change of coordinates: returns p(A v).

        The map acts on the coordinate column vector, (A v)_i = sum_j
        A[i][j] v_j; its LinearAction was checked for the conjugation
        pairing when it was built, so the real locus maps to itself.  It is
        monomial, so each variable maps to a scalar multiple of one
        variable (or to zero) and each term to one term (or to nothing).
        """
        _require_coordinates(action, self.nvars)
        if self.is_zero():
            return self
        rows = action.rows
        terms: dict[Monomial, GaussianRational] = {}
        for mono, coeff in self._terms.items():
            out = [0] * self.nvars
            c = coeff
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                if not rows[i]:
                    c = ZERO
                    break
                j, entry = rows[i][0]
                out[j] += e
                c = c * entry ** e if e > 1 else c * entry
            if not c:
                continue
            key = tuple(out)
            acc = terms.get(key, ZERO) + c
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return Polynomial._trusted(self.nvars, terms)

    # ordering, equality, rendering

    def sort_key(self):
        # grlex-descending term sequence, negated so that tuple order sorts
        # polynomials with larger leading monomials first within a degree
        terms = tuple(
            ((-sum(m), tuple(-e for e in m)), c.sort_key())
            for m, c in self.sorted_terms()
        )
        return (self.degree(), terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return render_polynomial(self)

    def __repr__(self):
        return f"Polynomial({render_polynomial(self)!r})"


def check_conjugation_compatible(rows, nvars: int) -> tuple:
    """Require A monomial and conjugation compatible; return the canonical rows.

    rows[i] lists the (column, entry) pairs of row i of A, on nvars = 2n + 2
    coordinates (DimensionError otherwise); an entry is exact (TypeError for
    a float, even 0.0) and may be zero.  Row by row, the entries are
    coerced and a row with more than one nonzero entry is named by
    IncompatibleMatrix: every linear map of the problem sends each
    coordinate to a multiple of at most one coordinate.  Then each nonzero
    entry is compared with its partner, A[conj i][conj j] == conj(A[i][j]),
    and the first nonzero entry of a broken pair is named by
    IncompatibleMatrix.  The canonical rows hold each row's nonzero entry,
    if any, as a GaussianRational.
    """
    nblocks_of(nvars)
    if len(rows) != nvars:
        raise DimensionError(f"expected {nvars} rows, got {len(rows)}")
    canonical = []
    for i, row in enumerate(rows):
        columns, kept = set(), []
        for j, x in row:
            if not (isinstance(j, int) and 0 <= j < nvars) or j in columns:
                raise DimensionError(f"row {i}: column {j!r} repeated or out of range")
            columns.add(j)
            if x := _coerce(x):
                kept.append((j, x))
        if len(kept) > 1:
            raise IncompatibleMatrix(
                f"row {i} has {len(kept)} nonzero entries; a linear map must be monomial"
            )
        canonical.append(tuple(kept))
    for i, row in enumerate(canonical):
        for j, x in row:
            # the partner row holds conj(x) at the partner column, alone
            paired = False
            for k, y in canonical[conj_index(i)]:
                paired = k == conj_index(j) and y.re == x.re and y.im == -x.im
            if not paired:
                raise IncompatibleMatrix(f"entry ({i},{j}) breaks the conjugation pairing")
    return tuple(canonical)


class LinearAction:
    """A monomial, conjugation-compatible linear map on nvars coordinates.

    Building one from rows of (column, entry) pairs runs
    check_conjugation_compatible once; the substitution methods then trust
    it.
    rows[i] holds the nonzero entry (j, A[i][j]) of row i, or nothing, so
    every variable maps to a scalar multiple of a single variable or to 0.
    Actions are not multiplied: `compose` gives the rows of a product as
    (column, re, im) triples, which only the involution checks read.
    """

    __slots__ = ("nvars", "rows")

    def __init__(self, rows, nvars: int):
        rows = check_conjugation_compatible(rows, nvars)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("LinearAction is immutable")


def compose(a: LinearAction, b: LinearAction) -> tuple:
    """The rows of the matrix product a b, as (column, re, im) triples.

    Row i of the product holds x y at column j when row i of a has x at
    column k and row k of b has y at column j; a product of nonzero entries
    is nonzero, so each row has an entry exactly when the rows it reads
    have.  The parts are multiplied as ints or Fractions and no entry
    object is built.  Nothing is checked: the involution checks of `group`
    and `continuous` compare these rows with each other and with the
    identity's.
    """
    rows = b.rows
    out = []
    for row in a.rows:
        product = []
        for k, x in row:
            xr, xi = x.re, x.im
            for j, y in rows[k]:
                product.append((j, xr * y.re - xi * y.im, xr * y.im + xi * y.re))
        out.append(tuple(product))
    return tuple(out)


def _require_coordinates(action: LinearAction, nvars: int):
    """Require an action on nvars coordinates."""
    if action.nvars != nvars:
        raise DimensionError(f"action is on {action.nvars} coordinates, expected {nvars}")


# -- exponent-tuple terms ----------------------------------------------------
#
# The span building of the pipeline and of the oracle runs on terms: a dict
# from exponent tuple to the (re, im) parts of a coefficient, ints or
# Fractions, multiplied and substituted without building a GaussianRational.
# A part may be a Fraction with denominator 1; converting back to a
# Polynomial makes it canonical.  A map's terms are one dict per stored
# component (x1, x2, z1, ..., zn).


def add_term(acc: dict, key, re, im):
    """acc[key] += re + im*i, dropping the entry when it cancels."""
    if key in acc:
        r0, i0 = acc[key]
        re, im = re + r0, im + i0
    if re or im:
        acc[key] = (re, im)
    else:
        acc.pop(key, None)


def mul_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, (r1, i1) in a.items():
        for m2, (r2, i2) in b.items():
            add_term(out, tuple(map(add, m1, m2)), r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
    return out


def terms_of(p: Polynomial) -> dict:
    return {m: (c.re, c.im) for m, c in p._terms.items()}


def polymap_terms(g: "PolyMap") -> tuple[dict, ...]:
    """The terms of each stored component of g."""
    return tuple(terms_of(c) for c in (*g.x_components, *g.z_components))


def polynomial_from_terms(nvars: int, terms: Mapping) -> Polynomial:
    """The Polynomial of kernel terms, whose monomials are trusted to have nvars slots."""
    return Polynomial._trusted(
        nvars, {m: GaussianRational(re, im) for m, (re, im) in terms.items() if re or im}
    )


def polymap_from_terms(nvars: int, components: Sequence[Mapping]) -> "PolyMap":
    """The PolyMap whose stored components have the given terms."""
    polys = [polynomial_from_terms(nvars, terms) for terms in components]
    return PolyMap(polys[:2], polys[2:])


class Substitution:
    """Monomial images m(Av) under one LinearAction, on exponent tuples.

    The action is monomial, so the image of a monomial is one term, each
    exponent moved to its row's column and the coefficient the product of
    the rows' entries, or nothing when a variable of m maps to 0.  Row i's
    powers are tabled: `powers[i][e]` is its entry to the e, as (re, im),
    and the table grows by one multiplication per power first asked for.
    """

    def __init__(self, action: LinearAction):
        self.rows = [tuple((j, (c.re, c.im)) for j, c in row) for row in action.rows]
        self.powers = [[(1, 0)] for _ in self.rows]

    def add_image(self, acc: dict, mono: Monomial, re, im):
        """acc += (re + im*i) * mono(Av)."""
        out = [0] * len(mono)
        for i, e in enumerate(mono):
            if not e:
                continue
            if not self.rows[i]:
                return
            j, (cr, ci) = self.rows[i][0]
            out[j] += e
            powers = self.powers[i]
            while len(powers) <= e:
                pr, pi = powers[-1]
                powers.append((pr * cr - pi * ci, pr * ci + pi * cr))
            pr, pi = powers[e]
            re, im = re * pr - im * pi, re * pi + im * pr
        add_term(acc, tuple(out), re, im)


def output_columns(action: LinearAction) -> list[list]:
    """For each coordinate j, the (stored component, A[r][j]) of the stored rows r.

    zb rows are left out: they are implied by the z rows.
    """
    columns: list[list] = [[] for _ in range(action.nvars)]
    for r, row in enumerate(action.rows):
        if r >= 2 and r % 2:
            continue
        comp = r if r < 2 else r // 2 + 1
        for j, c in row:
            columns[j].append((comp, (c.re, c.im)))
    return columns


def add_output_image(acc, columns: list[list], comp: int, terms: dict, sign: int):
    """acc += sign * A g, g the map with `terms` in stored component comp only.

    `acc` holds terms per stored component and `columns` is
    `output_columns(A)`.  The stored component is full component j, and a
    z component's conjugate is full component j + 1.
    """
    j = comp if comp < 2 else 2 * comp - 2
    placed = [(j, terms)]
    if comp >= 2:
        placed.append((j + 1, {conj_monomial(m): (re, -im) for m, (re, im) in terms.items()}))
    for jj, part in placed:
        for out_comp, (ar, ai) in columns[jj]:
            target = acc[out_comp]
            for m, (pr, pi) in part.items():
                add_term(target, m, sign * (ar * pr - ai * pi), sign * (ar * pi + ai * pr))


def re_part(p: Polynomial) -> Polynomial:
    """(p + conj p)/2 - the real part of a complex-valued polynomial."""
    return (p + p.conj()).scale(HALF)


def im_part(p: Polynomial) -> Polynomial:
    """(p - conj p)/(2i) - the imaginary part, itself real-valued."""
    return (p - p.conj()).scale(GaussianRational(0, Fraction(-1, 2)))


# -- polynomial mappings -----------------------------------------------------


class PolyMap:
    """Polynomial mapping V -> V with one component per coordinate block.

    Stores components for x1, x2 (real-valued) and z_1..z_n; the zb_j
    components are implicit, always the formal conjugate of the z_j ones,
    so the map sends the real locus to itself.
    """

    __slots__ = ("x_components", "z_components", "_hash")

    def __init__(self, x_components: Sequence[Polynomial], z_components: Sequence[Polynomial]):
        x_components = tuple(x_components)
        z_components = tuple(z_components)
        if len(x_components) != 2:
            raise DimensionError("expected exactly two x-components")
        nvars = x_components[0].nvars
        if nblocks_of(nvars) != len(z_components):
            raise DimensionError(
                f"{len(z_components)} z-components incompatible with {nvars} coordinates"
            )
        for comp in (*x_components, *z_components):
            if comp.nvars != nvars:
                raise DimensionError("components over different coordinate spaces")
        for comp in x_components:
            if not comp.is_real_valued():
                raise IncompatibleMatrix("x-components must be real-valued")
        object.__setattr__(self, "x_components", x_components)
        object.__setattr__(self, "z_components", z_components)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    @classmethod
    def zero(cls, nblocks: int) -> "PolyMap":
        nvars = 2 * nblocks + 2
        z = Polynomial.zero(nvars)
        return cls((z, z), (z,) * nblocks)

    @property
    def nvars(self) -> int:
        return self.x_components[0].nvars

    @property
    def nblocks(self) -> int:
        return len(self.z_components)

    def components(self) -> tuple[Polynomial, ...]:
        """Full component vector (x1, x2, z1, zb1, ..., zn, zbn)."""
        out = list(self.x_components)
        for comp in self.z_components:
            out.append(comp)
            out.append(comp.conj())
        return tuple(out)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.x_components) and all(
            c.is_zero() for c in self.z_components
        )

    def __bool__(self):
        return not self.is_zero()

    def degree(self) -> int:
        degs = [c.degree() for c in (*self.x_components, *self.z_components)]
        return max(degs)

    def is_homogeneous(self) -> bool:
        degs = set()
        for c in (*self.x_components, *self.z_components):
            degs.update({sum(m) for m in c.monomials()})
        return len(degs) <= 1

    def __add__(self, other: "PolyMap") -> "PolyMap":
        return PolyMap(
            tuple(a + b for a, b in zip(self.x_components, other.x_components)),
            tuple(a + b for a, b in zip(self.z_components, other.z_components)),
        )

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        return self + (-other)

    def __neg__(self) -> "PolyMap":
        return PolyMap(
            tuple(-c for c in self.x_components),
            tuple(-c for c in self.z_components),
        )

    def scale(self, c) -> "PolyMap":
        c = _coerce(c)
        if not c.is_real:
            raise IncompatibleMatrix("maps may only be scaled by real rationals")
        return PolyMap(
            tuple(comp.scale(c) for comp in self.x_components),
            tuple(comp.scale(c) for comp in self.z_components),
        )

    def apply_linear(self, action: LinearAction) -> "PolyMap":
        """A . g : act on the output vector by the matrix."""
        _require_coordinates(action, self.nvars)
        rows = action.rows
        full = self.components()
        nvars = self.nvars

        def row(i: int) -> Polynomial:
            acc = Polynomial.zero(nvars)
            for j, entry in rows[i]:
                acc = acc + full[j].scale(entry)
            return acc

        xs = (row(0), row(1))
        zs = tuple(row(z_index(j)) for j in range(1, self.nblocks + 1))
        return PolyMap(xs, zs)

    def sort_key(self):
        leading = next(
            (i for i, c in enumerate((*self.x_components, *self.z_components)) if c),
            -1,
        )
        comps = tuple(c.sort_key() for c in (*self.x_components, *self.z_components))
        return (self.degree(), leading, comps)

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self.x_components == other.x_components
            and self.z_components == other.z_components
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.x_components, self.z_components))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return render_polymap(self)

    def __repr__(self):
        return f"PolyMap({render_polymap(self)!r})"


# -- rendering and parsing ---------------------------------------------------


def render_polynomial(p: Polynomial, notation: Notation = TEXT) -> str:
    if p.is_zero():
        return "0"
    text = ""
    for mono, coeff in p.sorted_terms():
        if coeff.re and coeff.im:
            # a mixed coefficient is bracketed whole, its sign stays inside
            sign, mag = "+", coeff
        else:
            sign = "-" if (coeff.re or coeff.im) < 0 else "+"
            mag = GaussianRational(abs(coeff.re), abs(coeff.im))
        mono_txt = render_monomial(mono, notation)
        if not mono_txt:
            body = render_coefficient(mag, notation)
        elif mag == ONE:
            body = mono_txt
        else:
            body = render_coefficient(mag, notation) + notation.times + mono_txt
        if text:
            text += f" {sign} {body}"
        else:
            text = body if sign == "+" else f"-{body}"
    return text


def render_tuple(polys: Sequence[Polynomial], notation: Notation = TEXT) -> str:
    """Polynomials in brackets: (x1, z1) in text."""
    return notation.bracket(
        notation.separator.join(render_polynomial(p, notation) for p in polys)
    )


def render_polymap(g: PolyMap, notation: Notation = TEXT) -> str:
    return render_tuple((*g.x_components, *g.z_components), notation)


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok is None or tok[0] != kind:
            raise ValueError(f"expected {kind}, got {tok}")
        return tok

    def parse(self) -> Polynomial:
        p = self.parse_sum()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()}")
        return p

    def parse_sum(self) -> Polynomial:
        sign = 1
        tok = self.peek()
        if tok and tok[0] in "+-":
            self.next()
            sign = -1 if tok[0] == "-" else 1
        acc = self.parse_product()
        if sign < 0:
            acc = -acc
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                return acc
            self.next()
            term = self.parse_product()
            acc = acc + term if tok[0] == "+" else acc - term

    def parse_product(self) -> Polynomial:
        acc = self.parse_power()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "*":
                return acc
            self.next()
            acc = acc * self.parse_power()

    def parse_power(self) -> Polynomial:
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok[0] == "^":
            self.next()
            exp = int(self.expect("num")[1])
            return base ** exp
        return base

    def parse_atom(self) -> Polynomial:
        tok = self.next()
        if tok is None:
            raise ValueError("unexpected end of input")
        kind, value = tok
        if kind == "num":
            num = Fraction(int(value))
            tok = self.peek()
            if tok and tok[0] == "/":
                self.next()
                num /= int(self.expect("num")[1])
            return Polynomial.constant(self.nvars, num)
        if kind == "name":
            if value == "i":
                return Polynomial.constant(self.nvars, I)
            index = variable_index(value, self.nvars)
            return Polynomial.variable(self.nvars, index)
        if kind == "(":
            inner = self.parse_sum()
            self.expect(")")
            return inner
        raise ValueError(f"unexpected token {tok}")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j]))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r}")
    return tokens


def parse_polynomial(text: str, nblocks: int) -> Polynomial:
    """Parse the canonical polynomial syntax back into a Polynomial."""
    return _Parser(text, 2 * nblocks + 2).parse()


def parse_polymap(text: str, nblocks: int) -> PolyMap:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("polynomial map must be parenthesized")
    inner = text[1:-1]
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    parts.append(inner[start:])
    if len(parts) != nblocks + 2:
        raise ValueError(f"expected {nblocks + 2} components, got {len(parts)}")
    comps = [parse_polynomial(part, nblocks) for part in parts]
    return PolyMap(comps[:2], comps[2:])
