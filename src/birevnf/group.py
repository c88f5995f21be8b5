"""Signed linear elements and the four membership predicates.

A SignedElement couples an exact linear map on V with a value of the sign
epimorphism: +1 for symmetries, -1 for reversing symmetries.  The finite
part of the reversing group is generated by two commuting involutions, so
it is the Klein four-group {e, phi, psi, phi*psi}; nothing here closes a
general group.  The continuous factor never appears as elements, only
through the infinitesimal data carried by a group context.  An element
is built from the sparse rows of its map, each row's (column, entry)
pairs; no dense matrix is formed.  It is checked once: monomial and
conjugation compatible (`poly.check_conjugation_compatible`), and
invertible, which for a monomial map means that every row has its entry
in a column of its own.  Neither elements nor actions are multiplied;
every further fact about one is read off the rows of its `LinearAction`
and the rows of their products, which `poly.compose` gives as (column,
re, im) triples on the entries' parts: `is_involution` and
`anticommute_check` are the pieces from which
`continuous.check_involution_pair` decides the reversing tower; no
semidirect or product-sign object is built.

Membership of a polynomial or mapping in the invariant / anti-invariant /
equivariant / reversible-equivariant classes is decided by checking the
defining identity on the finite generators exactly and delegating the
continuous conditions to the context (weight-lattice and shear checks).
The identity is checked term by term on the object's terms and the
element's rows, returning at the first mismatch.  An element is monomial
and invertible, so m -> m(Av) is injective on monomials: p(Av) = s q
holds iff p and q have as many terms and each term (m, c) of p finds
c chi(m) / s at the image of m in q, chi(m) the product of the row
entries to the exponents of m.  For a map, (A g)_i = a_i g_j for row i's
entry (j, a_i), a zb column reading the z component conjugated; the
stored components are compared, as `PolyMap.__eq__` does.  No Polynomial
or PolyMap is built, and the term kernel of `poly` that builds what
`certify` checks is not used.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Literal, NamedTuple

from .errors import DimensionError, SignInconsistency
from .poly import Frozen, LinearAction, PolyMap, Polynomial, compose, conj_monomial

if TYPE_CHECKING:
    from .continuous import LinearPart

MembershipKind = Literal[
    "invariant", "anti_invariant", "equivariant", "reversible_equivariant"
]


class SignedElement(Frozen):
    """An exact linear map on V together with its sign under the epimorphism.

    `rows` lists each row's (column, entry) pairs; `action` is the checked
    LinearAction built from them, the form the substitution methods take,
    and construction replaces `rows` with its canonical rows.  Every
    element is checked (monomial, conjugation compatible, invertible),
    once: `_trusted` takes rows built from checked ones.  No product is
    built as an element or an action: the checks compare the (column, re,
    im) rows that `poly.compose` gives.  An element is frozen; equality
    and the hash, computed once, read `rows` and `sign`, not `name`.
    """

    def __init__(self, rows: tuple, sign: int, name: str = ""):
        if sign not in (1, -1):
            raise SignInconsistency(f"sign must be +1 or -1, got {sign}")
        size = len(rows)
        action = LinearAction(rows, size)
        # a monomial map is invertible when its rows hit distinct columns
        if len({j for row in action.rows for j, _ in row}) != size:
            raise DimensionError("group element matrix must be invertible")
        vars(self).update(rows=action.rows, sign=sign, name=name, action=action, _hash=None)

    @classmethod
    def _trusted(cls, rows: tuple, sign: int, name: str, involution: bool):
        """An element on a checked element's rows, unchecked, whose
        `is_involution()` answers `involution`."""
        action = LinearAction._trusted(rows, len(rows))
        return super()._trusted(
            rows=rows, sign=sign, name=name, action=action, _hash=None, _involution=involution
        )

    def _value(self) -> tuple:
        return (self.rows, self.sign)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._value())
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def size(self) -> int:
        return len(self.rows)

    def is_involution(self) -> bool:
        """A * A = I, decided on the first call and kept (the element is frozen)."""
        known = self.__dict__.get("_involution")
        if known is None:
            identity = tuple(((i, 1, 0),) for i in range(self.size))
            known = compose(self.action, self.action) == identity
            object.__setattr__(self, "_involution", known)
        return known


# -- membership --------------------------------------------------------------


class GroupContext(NamedTuple):
    """Finite signed generators plus the continuous data they extend.

    The element signs are the values of the relevant epimorphism; running
    the same maps with different signs realizes the different sign maps
    (sigma, sigma_1, sigma_tilde) on one underlying group.
    """

    elements: tuple[SignedElement, ...]
    continuous: LinearPart | None = None


def membership(obj, context: GroupContext, kind: MembershipKind) -> bool:
    """Exact test of the defining identity for the given membership kind.

    Checks the identity on every finite generator and, when the context
    carries continuous data, the infinitesimal torus/shear conditions.
    Each identity is decided on obj's terms and the element's rows and
    fails at the first mismatch (`_pulls_back_to`); no Polynomial or
    PolyMap is built.  DimensionError for an element on another number of
    coordinates than obj.
    """
    if kind in ("invariant", "anti_invariant"):
        if not isinstance(obj, Polynomial):
            raise TypeError("function membership kinds apply to Polynomial")
        for el in context.elements:
            sources, scaled = _monomial_images(el, obj.nvars)
            factor = (1 if kind == "invariant" else el.sign, 0)
            if not _pulls_back_to(obj, itemgetter(*sources), scaled, obj, 1, factor):
                return False
        if context.continuous is not None:
            return context.continuous.infinitesimal_ok(obj, "invariant")
        return True
    if kind in ("equivariant", "reversible_equivariant"):
        if not isinstance(obj, PolyMap):
            raise TypeError("mapping membership kinds apply to PolyMap")
        stored = (*obj.x_components, *obj.z_components)
        for el in context.elements:
            sources, scaled = _monomial_images(el, obj.nvars)
            image = itemgetter(*sources)
            conj_image = itemgetter(*conj_monomial(sources))
            sign = el.sign if kind == "reversible_equivariant" else 1
            # stored component k is coordinate i = k (x) or 2k - 2 (z), and
            # (A g)_i = a g_j for row i's entry (j, a); g_j is the stored
            # component of j, conjugated when j is a zb coordinate
            for k, comp in enumerate(stored):
                ((j, a),) = el.rows[k if k < 2 else 2 * k - 2]
                conj = j >= 2 and j % 2 == 1
                if not _pulls_back_to(
                    comp,
                    conj_image if conj else image,
                    scaled,
                    stored[j if j < 2 else j // 2 + 1],
                    -1 if conj else 1,
                    (sign * a.re, sign * a.im),
                ):
                    return False
        if context.continuous is not None:
            return context.continuous.infinitesimal_ok(obj, "equivariant")
        return True
    raise ValueError(f"unknown membership kind {kind!r}")


def _monomial_images(el: SignedElement, nvars: int):
    """How el's map A moves monomials: m -> m(Av).

    A is monomial and invertible, so row i holds one entry (j_i, a_i) and
    the columns j_i are distinct: m(Av) is the monomial with exponent m_i
    at j_i, times the product of the a_i ** m_i.  Returns `sources`, the
    row i read at each column j_i, so that m(Av) has exponents
    `itemgetter(*sources)(m)`, and the (i, re, im) of the entries a_i
    other than 1.
    """
    if el.size != nvars:
        raise DimensionError(f"element acts on {el.size} coordinates, expected {nvars}")
    sources = [0] * nvars
    scaled = []
    for i, ((j, a),) in enumerate(el.rows):
        sources[j] = i
        if a.im or a.re != 1:
            scaled.append((i, a.re, a.im))
    return sources, scaled


def _pulls_back_to(source, image, scaled, target, im_sign, factor) -> bool:
    """Whether source(Av) == factor * target, or factor * conj(target) when
    im_sign is -1 and image reads target's conjugate monomials.

    m -> m(Av) is injective on monomials, so the identity holds iff both
    sides have as many terms and each term (m, c) of source finds target's
    coefficient d at image(m) with c * prod(a_i ** m_i) == factor * d.
    """
    if len(source) != len(target):
        return False
    lookup = target.terms.get
    fr, fi = factor
    for mono, c in source.terms.items():
        d = lookup(image(mono))
        if d is None:
            return False
        re, im = c.re, c.im
        for i, ar, ai in scaled:
            for _ in range(mono[i]):
                re, im = re * ar - im * ai, re * ai + im * ar
        dr, di = d.re, im_sign * d.im
        if re != fr * dr - fi * di or im != fr * di + fi * dr:
            return False
    return True


def anticommute_check(gamma: SignedElement, linear_part) -> bool:
    """True iff L*gamma + gamma*L = 0 exactly.

    The linearization enters through its concrete infinitesimal pieces (the
    nilpotent block and one rotation combination per torus weight row), so
    the check holds for every admissible choice of the frequencies.
    """
    if gamma.size != linear_part.nvars:
        raise DimensionError(
            f"element acts on {gamma.size} coordinates, linearization on "
            f"{linear_part.nvars}"
        )
    action = gamma.action
    for m in linear_part.infinitesimal_generators():
        negated = tuple(tuple((j, -re, -im) for j, re, im in row) for row in compose(m, action))
        if compose(action, m) != negated:
            return False
    return True
