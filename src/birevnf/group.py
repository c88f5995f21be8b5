"""Finite signed symmetry groups and the four membership predicates.

A SignedElement couples an exact linear map on V with a value of the sign
epimorphism: +1 for symmetries, -1 for reversing symmetries.  Finite groups
are stored as explicit closed element lists (the orders needed here never
exceed four); the continuous factor never appears as elements, only through
the infinitesimal data carried by a group context.  An element built from a
matrix is checked once: invertible (`linalg.complex_rank`, skipped for a
monomial matrix, one nonzero entry in each row and each column, which is
invertible as it stands) and conjugation compatible.  `close_group` and
`anticommute_check` are the pieces from which
`continuous.check_involution_pair` decides the reversing tower; no
semidirect or product-sign object is built.

Membership of a polynomial or mapping in the invariant / anti-invariant /
equivariant / reversible-equivariant classes is decided by checking the
defining identity on the finite generators exactly and delegating the
continuous conditions to the context (weight-lattice and shear checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Protocol, Sequence

from .errors import DimensionError, OrderExceeded, SignInconsistency
from .linalg import Matrix, complex_rank, identity_matrix, mat_mul
from .poly import LinearAction, PolyMap, Polynomial

MembershipKind = Literal[
    "invariant", "anti_invariant", "equivariant", "reversible_equivariant"
]


@dataclass(frozen=True)
class SignedElement:
    """An exact linear map on V together with its sign under the epimorphism.

    `action` is the matrix compiled once into a checked LinearAction; pass it,
    not `matrix`, to the substitution methods so they skip the check.  An
    element built from a matrix is checked (invertible, conjugation
    compatible); products of elements are not checked again.
    """

    matrix: Matrix
    sign: int
    name: str = field(default="", compare=False)
    action: LinearAction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise SignInconsistency(f"sign must be +1 or -1, got {self.sign}")
        size = len(self.matrix)
        action = LinearAction(self.matrix, size)
        object.__setattr__(self, "action", action)
        # one nonzero entry in each row, in distinct columns: invertible as it is
        columns = {row[0][0] for row in action.rows if row}
        if not (action.monomial and len(columns) == size) and complex_rank(self.matrix) != size:
            raise DimensionError("group element matrix must be invertible")

    @property
    def size(self) -> int:
        return len(self.matrix)

    def is_involution(self) -> bool:
        """A * A = I, decided on the first call and kept (the element is frozen)."""
        known = self.__dict__.get("_involution")
        if known is None:
            known = mat_mul(self.matrix, self.matrix) == identity_matrix(self.size)
            object.__setattr__(self, "_involution", known)
        return known

    @classmethod
    def _from_checked(cls, action: LinearAction, sign: int, name: str) -> "SignedElement":
        """An element whose action is a product of checked ones, not checked again.

        Invertibility and conjugation compatibility are closed under products,
        and the sign is a product of checked signs.
        """
        element = cls.__new__(cls)
        object.__setattr__(element, "matrix", action.matrix())
        object.__setattr__(element, "sign", sign)
        object.__setattr__(element, "name", name)
        object.__setattr__(element, "action", action)
        return element

    def __mul__(self, other: "SignedElement") -> "SignedElement":
        return SignedElement._from_checked(
            self.action * other.action,
            self.sign * other.sign,
            f"{self.name}*{other.name}" if self.name and other.name else "",
        )

    def key(self):
        return self.action.key()


def close_group(
    generators: Sequence[SignedElement], max_order: int = 64
) -> tuple[SignedElement, ...]:
    """Multiplicative closure of the generators, tracking signs.

    Returns the elements, the identity first, each matrix once with its
    sign.  Raises OrderExceeded past max_order elements and
    SignInconsistency when the same matrix is reached with two different
    signs (the sign map would not be a homomorphism).
    """
    if not generators:
        raise DimensionError("at least one generator required")
    size = generators[0].size
    for g in generators:
        if g.size != size:
            raise DimensionError("generators act on different spaces")
    seen: dict = {}  # matrix key -> sign
    ordered: list[SignedElement] = []

    def add(el: SignedElement) -> bool:
        key = el.key()
        if key in seen:
            if seen[key] != el.sign:
                raise SignInconsistency(
                    "element reached with both signs; sign map is not well defined"
                )
            return False
        if len(ordered) + 1 > max_order:
            raise OrderExceeded(f"group closure exceeded {max_order} elements")
        seen[key] = el.sign
        ordered.append(el)
        return True

    # the identity is invertible and conjugation compatible as it stands
    identity = LinearAction.trusted(identity_matrix(size), size)
    add(SignedElement._from_checked(identity, 1, "e"))
    # products with the identity add nothing, so the walk starts past it
    frontier = [g for g in generators if add(g)]
    while frontier:
        new: list[SignedElement] = []
        for a in frontier:
            for g in generators:
                prod = a * g
                if add(prod):
                    new.append(prod)
        frontier = new
    return tuple(ordered)


# -- membership --------------------------------------------------------------


class ContinuousChecker(Protocol):
    def infinitesimal_ok(self, obj, kind: str) -> bool: ...


@dataclass(frozen=True)
class GroupContext:
    """Finite signed generators plus the continuous data they extend.

    The element signs are the values of the relevant epimorphism; running
    the same matrices with different signs realizes the different sign maps
    (sigma, sigma_1, sigma_tilde) on one underlying group.
    """

    elements: tuple[SignedElement, ...]
    continuous: ContinuousChecker | None = None


def membership(obj, context: GroupContext, kind: MembershipKind) -> bool:
    """Exact test of the defining identity for the given membership kind.

    Checks the identity on every finite generator and, when the context
    carries continuous data, the infinitesimal torus/shear conditions.
    """
    if kind in ("invariant", "anti_invariant"):
        if not isinstance(obj, Polynomial):
            raise TypeError("function membership kinds apply to Polynomial")
        for el in context.elements:
            pulled = obj.substitute_linear(el.action)
            expected = obj if kind == "invariant" else obj.scale(el.sign)
            if pulled != expected:
                return False
        if context.continuous is not None:
            return context.continuous.infinitesimal_ok(obj, "invariant")
        return True
    if kind in ("equivariant", "reversible_equivariant"):
        if not isinstance(obj, PolyMap):
            raise TypeError("mapping membership kinds apply to PolyMap")
        for el in context.elements:
            lhs = obj.compose_linear(el.action)
            rhs = obj.apply_linear(el.action)
            if kind == "reversible_equivariant":
                rhs = rhs.scale(el.sign)
            if lhs != rhs:
                return False
        if context.continuous is not None:
            return context.continuous.infinitesimal_ok(obj, "equivariant")
        return True
    raise ValueError(f"unknown membership kind {kind!r}")


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
    for m in linear_part.infinitesimal_generators():
        negated = tuple(tuple((j, -c) for j, c in row) for row in (gamma.action * m).rows)
        if (m * gamma.action).rows != negated:
            return False
    return True
