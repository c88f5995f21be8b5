"""Finite signed symmetry groups and the four membership predicates.

A SignedElement couples an exact linear map on V with a value of the sign
epimorphism: +1 for symmetries, -1 for reversing symmetries.  Finite groups
are stored as explicit closed element lists (the orders needed here never
exceed four); the continuous factor never appears as elements, only through
the infinitesimal data carried by a group context.

Membership of a polynomial or mapping in the invariant / anti-invariant /
equivariant / reversible-equivariant classes is decided by checking the
defining identity on the finite generators exactly and delegating the
continuous conditions to the context (weight-lattice and shear checks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Literal, Protocol, Sequence

from .errors import (
    ConditionViolated,
    DimensionError,
    NotAHomomorphism,
    OrderExceeded,
    SignInconsistency,
)
from .linalg import (
    Matrix,
    identity_matrix,
    mat_add,
    mat_equal,
    mat_inverse,
    mat_is_zero,
    mat_mul,
    mat_rank,
    matrix_from_rows,
    matrix_key,
    solve_combination,
)
from .poly import (
    GaussianRational,
    LinearAction,
    PolyMap,
    Polynomial,
    parse_polynomial,
    render_coefficient,
)

MembershipKind = Literal[
    "invariant", "anti_invariant", "equivariant", "reversible_equivariant"
]


@dataclass(frozen=True)
class SignedElement:
    """An exact linear map on V together with its sign under the epimorphism.

    `action` is the matrix compiled once into a checked LinearAction; pass it,
    not `matrix`, to the substitution methods so they skip the check.  An
    element built from a matrix is checked (invertible, conjugation
    compatible); products and inverses of elements are not checked again.
    """

    matrix: Matrix
    sign: int
    name: str = field(default="", compare=False)
    action: LinearAction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise SignInconsistency(f"sign must be +1 or -1, got {self.sign}")
        size = len(self.matrix)
        object.__setattr__(self, "action", LinearAction(self.matrix, size))
        if mat_rank(self.matrix) != size:
            raise DimensionError("group element matrix must be invertible")

    @property
    def size(self) -> int:
        return len(self.matrix)

    def is_involution(self) -> bool:
        """A * A = I, decided on the first call and kept (the element is frozen)."""
        known = self.__dict__.get("_involution")
        if known is None:
            known = mat_equal(mat_mul(self.matrix, self.matrix), identity_matrix(self.size))
            object.__setattr__(self, "_involution", known)
        return known

    @classmethod
    def _from_checked(cls, matrix: Matrix, sign: int, name: str) -> "SignedElement":
        """A product or inverse of checked elements, built without the checks.

        Invertibility and conjugation compatibility are closed under both,
        and the sign is a product of checked signs.
        """
        element = cls.__new__(cls)
        object.__setattr__(element, "matrix", matrix)
        object.__setattr__(element, "sign", sign)
        object.__setattr__(element, "name", name)
        object.__setattr__(element, "action", LinearAction.trusted(matrix, len(matrix)))
        return element

    def inverse(self) -> "SignedElement":
        return SignedElement._from_checked(
            mat_inverse(self.matrix), self.sign, self.name + "^-1"
        )

    def __mul__(self, other: "SignedElement") -> "SignedElement":
        return SignedElement._from_checked(
            mat_mul(self.matrix, other.matrix),
            self.sign * other.sign,
            f"{self.name}*{other.name}" if self.name and other.name else "",
        )

    def key(self):
        return matrix_key(self.matrix)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "matrix": [render_coefficient(c) for row in self.matrix for c in row],
            "sign": self.sign,
            "name": self.name,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SignedElement":
        size = data["size"]
        flat = data["matrix"]
        if len(flat) != size * size:
            raise DimensionError("matrix entry count does not match size")
        nblocks = (size - 2) // 2
        entries = []
        for text in flat:
            p = parse_polynomial(text, nblocks)
            entries.append(p.coefficient((0,) * size))
        rows = [entries[i * size : (i + 1) * size] for i in range(size)]
        return cls(matrix_from_rows(rows), data["sign"], data.get("name", ""))


@dataclass(frozen=True)
class FiniteSignedGroup:
    """Explicit element list closed under product, with a sign homomorphism."""

    elements: tuple[SignedElement, ...]
    generator_indices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def sign_of(self, matrix: Matrix) -> int:
        key = matrix_key(matrix)
        for el in self.elements:
            if el.key() == key:
                return el.sign
        raise KeyError("matrix is not an element of this group")


def close_group(
    generators: Sequence[SignedElement], max_order: int = 64
) -> FiniteSignedGroup:
    """Multiplicative closure of the generators, tracking signs.

    Raises OrderExceeded past max_order elements and SignInconsistency when
    the same matrix is reached with two different signs (the sign map would
    not be a homomorphism).
    """
    if not generators:
        raise DimensionError("at least one generator required")
    size = generators[0].size
    for g in generators:
        if g.size != size:
            raise DimensionError("generators act on different spaces")
    seen: dict = {}
    ident = SignedElement(identity_matrix(size), 1, "e")
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

    add(ident)
    gen_indices = []
    for g in generators:
        add(g)
    frontier = list(ordered)
    while frontier:
        new: list[SignedElement] = []
        for a in frontier:
            for g in generators:
                prod = a * g
                if add(prod):
                    new.append(prod)
        frontier = new
    # generators may coincide with earlier elements; record their positions
    for g in generators:
        key = g.key()
        for i, el in enumerate(ordered):
            if el.key() == key:
                gen_indices.append(i)
                break
    return FiniteSignedGroup(tuple(ordered), tuple(gen_indices))


# -- product epimorphism -----------------------------------------------------


@dataclass(frozen=True)
class ProductSign:
    """Sign data for a semidirect product built from two signed factors.

    sigma multiplies the factor signs; sigma_tilde forgets the first factor,
    turning every element of it into a symmetry.
    """

    factor1: FiniteSignedGroup
    factor2: FiniteSignedGroup

    def sigma(self, gamma1: SignedElement, gamma2: SignedElement) -> int:
        return self.factor1.sign_of(gamma1.matrix) * self.factor2.sign_of(gamma2.matrix)

    def sigma_tilde(self, gamma1: SignedElement, gamma2: SignedElement) -> int:
        self.factor1.sign_of(gamma1.matrix)  # membership check
        return self.factor2.sign_of(gamma2.matrix)


def product_sigma(
    gamma1_generators: Sequence[SignedElement],
    gamma2_generators: Sequence[SignedElement],
    max_order: int = 64,
) -> ProductSign:
    """Combine the factor sign maps, checking well-definedness.

    The product sign map is a homomorphism iff conjugation by the second
    factor preserves the signs of the first; that condition is verified on
    generators and NotAHomomorphism is raised when it fails.
    """
    g1 = close_group(gamma1_generators, max_order)
    g2 = close_group(gamma2_generators, max_order)
    for kappa in gamma2_generators:
        kappa_inv = mat_inverse(kappa.matrix)
        for gen in gamma1_generators:
            conj = mat_mul(mat_mul(kappa.matrix, gen.matrix), kappa_inv)
            try:
                conj_sign = g1.sign_of(conj)
            except KeyError:
                raise NotAHomomorphism(
                    "conjugation by the second factor leaves the first factor"
                ) from None
            if conj_sign != gen.sign:
                raise NotAHomomorphism(
                    "conjugation does not preserve the factor sign map"
                )
    return ProductSign(g1, g2)


# -- semidirect compatibility ------------------------------------------------


@dataclass(frozen=True)
class SemidirectReport:
    """Verification record for the semidirect-product action condition."""

    finite_pairs_checked: int
    infinitesimal_checked: int
    ok: bool = True


def check_semidirect_condition(
    rho_generators: Sequence[SignedElement],
    eta_generators: Sequence[SignedElement],
    infinitesimal_generators: Sequence[Matrix] = (),
    max_order: int = 64,
) -> SemidirectReport:
    """Confirm that conjugation by the second factor realizes an automorphism.

    Finite part: eta * rho * eta^-1 must land inside the closure of the
    first factor.  Continuous part: conjugation must send every infinitesimal
    generator to an integer combination of infinitesimal generators.
    """
    finite_checked = 0
    closure = close_group(rho_generators, max_order) if rho_generators else None
    for eta in eta_generators:
        eta_inv = mat_inverse(eta.matrix)
        for rho in rho_generators:
            key = matrix_key(mat_mul(mat_mul(eta.matrix, rho.matrix), eta_inv))
            if not any(el.key() == key for el in closure.elements):
                raise ConditionViolated(
                    f"conjugate of {rho.name or 'generator'} by "
                    f"{eta.name or 'generator'} leaves the first factor"
                )
            finite_checked += 1
    inf_checked = 0
    if infinitesimal_generators:
        gen_vectors = [_matrix_vector(m) for m in infinitesimal_generators]
        for eta in eta_generators:
            eta_inv = mat_inverse(eta.matrix)
            for mat in infinitesimal_generators:
                conj = mat_mul(mat_mul(eta.matrix, mat), eta_inv)
                coeffs = solve_combination(gen_vectors, _matrix_vector(conj))
                if coeffs is None or any(
                    not _is_integer_scalar(c) for c in coeffs
                ):
                    raise ConditionViolated(
                        f"conjugation by {eta.name or 'generator'} does not "
                        "preserve the infinitesimal generator lattice"
                    )
                inf_checked += 1
    return SemidirectReport(finite_checked, inf_checked)


@dataclass(frozen=True)
class SemidirectSpec:
    """A verified order-two extension of a first factor.

    Carries the finite generators of the first factor (the continuous part
    enters through its infinitesimal generators during verification), the
    extending involution (sign -1 when it acts as a reversing symmetry),
    and the record of the compatibility check.
    """

    gamma1_finite: tuple[SignedElement, ...]
    kappa: SignedElement
    mu_check_report: SemidirectReport

    @classmethod
    def build(
        cls,
        gamma1_finite: Sequence[SignedElement],
        kappa: SignedElement,
        infinitesimal_generators: Sequence[Matrix] = (),
        max_order: int = 64,
    ) -> "SemidirectSpec":
        if not kappa.is_involution():
            raise ConditionViolated("the extension generator must be an involution")
        report = check_semidirect_condition(
            gamma1_finite,
            [kappa],
            infinitesimal_generators=infinitesimal_generators,
            max_order=max_order,
        )
        return cls(tuple(gamma1_finite), kappa, report)


def _matrix_vector(m: Matrix) -> dict:
    return {
        (i, j): entry for i, row in enumerate(m) for j, entry in enumerate(row) if entry
    }


def _is_integer_scalar(c) -> bool:
    if isinstance(c, GaussianRational):
        return c.im == 0 and type(c.re) is int
    return isinstance(c, int)


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
    for mat in linear_part.infinitesimal_generators():
        anti = mat_add(mat_mul(mat, gamma.matrix), mat_mul(gamma.matrix, mat))
        if not mat_is_zero(anti):
            return False
    return True


def element_to_json(element: SignedElement) -> str:
    return json.dumps(element.to_json(), sort_keys=True)


def element_from_json(text: str) -> SignedElement:
    return SignedElement.from_json(json.loads(text))
