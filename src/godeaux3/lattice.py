"""Exact integer intersection theory on Picard lattices of rational surfaces.

Lattices are immutable: a symmetric integer Gram matrix over a named basis,
together with the class of the canonical divisor.  Divisor classes are
integer coefficient vectors against that basis.  Everything is exact; no
floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul


class LatticeError(Exception):
    """Raised for malformed lattices or mismatched lattice operations."""


class ParityError(LatticeError):
    """Raised when D^2 + D.K is odd, so the arithmetic genus is not an integer."""


@dataclass(frozen=True)
class IntersectionLattice:
    """Symmetric integer bilinear form with a distinguished canonical class."""

    basis_labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        n = len(self.basis_labels)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise LatticeError("gram matrix shape does not match basis")
        if len(self.canonical) != n:
            raise LatticeError("canonical class length does not match basis")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise LatticeError("gram matrix is not symmetric")

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def dot(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        if len(u) != self.rank or len(v) != self.rank:
            raise LatticeError("coefficient vector length does not match the lattice rank")
        return sum(ui * sum(map(mul, row, v)) for ui, row in zip(u, self.gram))

    def divisor(self, coeffs) -> "DivisorClass":
        return DivisorClass(self, tuple(int(c) for c in coeffs))

    def by_label(self, **labelled: int) -> "DivisorClass":
        """Build a class from ``label=coefficient`` keyword pairs."""
        coeffs = [0] * self.rank
        index = {lab: i for i, lab in enumerate(self.basis_labels)}
        for lab, c in labelled.items():
            coeffs[index[lab]] = int(c)
        return self.divisor(coeffs)

    def basis_class(self, label: str) -> "DivisorClass":
        return self.by_label(**{label: 1})

    @property
    def k(self) -> "DivisorClass":
        return self.divisor(self.canonical)

    @classmethod
    def plane_blow_up(cls, n_points: int, name: str = "") -> "IntersectionLattice":
        """Plane blown up at ``n_points`` points: basis (H; E_1..E_n)."""
        labels = ("H",) + tuple(f"E{i}" for i in range(1, n_points + 1))
        size = n_points + 1
        gram = tuple(
            tuple((1 if i == j == 0 else -1 if i == j else 0) for j in range(size))
            for i in range(size)
        )
        canonical = (-3,) + (1,) * n_points
        return cls(labels, gram, canonical, name=name or f"P2+{n_points}")

    @classmethod
    def hirzebruch(cls, a: int, name: str = "") -> "IntersectionLattice":
        """F_a with basis (c, f): c^2=-a, f^2=0, c.f=1, K=-2c-(a+2)f."""
        gram = ((-a, 1), (1, 0))
        return cls(("c", "f"), gram, (-2, -(a + 2)), name=name or f"F{a}")

    def to_json(self) -> dict:
        return {
            "basis": list(self.basis_labels),
            "gram": [list(row) for row in self.gram],
            "canonical": list(self.canonical),
        }

    @classmethod
    def from_json(cls, data: dict, name: str = "") -> "IntersectionLattice":
        return cls(
            tuple(data["basis"]),
            tuple(tuple(int(x) for x in row) for row in data["gram"]),
            tuple(int(x) for x in data["canonical"]),
            name=name,
        )


@dataclass(frozen=True)
class DivisorClass:
    lattice: IntersectionLattice
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.lattice.rank:
            raise LatticeError("coefficient vector length does not match basis")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_lattice(other)
        return DivisorClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_lattice(other)
        return DivisorClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(scalar * a for a in self.coeffs))

    def __neg__(self) -> "DivisorClass":
        return -1 * self

    def _same_lattice(self, other: "DivisorClass") -> None:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeError("divisor classes live on different lattices")

    def dot(self, other: "DivisorClass") -> int:
        self._same_lattice(other)
        return self.lattice.dot(self.coeffs, other.coeffs)

    @property
    def square(self) -> int:
        return self.dot(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_json(self) -> dict:
        return {"lattice_id": self.lattice.name, "coeffs": list(self.coeffs)}


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number coeffs^T . gram . coeffs; bilinear and symmetric."""
    return d1.dot(d2)


def arithmetic_genus(d: DivisorClass) -> int:
    """1 + (D^2 + D.K)/2; rejects classes with odd D^2 + D.K."""
    total = d.square + d.dot(d.lattice.k)
    if total % 2 != 0:
        raise ParityError(f"D^2 + D.K = {total} is odd")
    return 1 + total // 2


def blow_up(lattice: IntersectionLattice) -> IntersectionLattice:
    """Append one exceptional basis vector of square -1, orthogonal to the rest."""
    n = lattice.rank
    label = f"E{n}"
    while label in lattice.basis_labels:
        label += "'"
    gram = tuple(tuple(row) + (0,) for row in lattice.gram) + (
        tuple(0 for _ in range(n)) + (-1,),
    )
    return IntersectionLattice(
        lattice.basis_labels + (label,),
        gram,
        lattice.canonical + (1,),
        name=lattice.name + "+1" if lattice.name else "",
    )


def hodge_index_filter(d: DivisorClass, n: DivisorClass) -> bool:
    """Index-theorem rejection predicate.

    With N^2 > 0, every class D must satisfy (N^2 . D - (D.N) . N)^2 <= 0;
    returns False for classes that violate it.
    """
    b = n.square
    if b <= 0:
        raise LatticeError("index filter needs N^2 > 0")
    a = d.dot(n)
    candidate = b * d - a * n
    return candidate.square <= 0
