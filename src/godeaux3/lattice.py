"""Exact integer intersection theory on Picard lattices of rational surfaces.

Lattices are immutable: a symmetric integer Gram matrix over a named basis,
together with the class of the canonical divisor.  Divisor classes are
integer coefficient vectors against that basis.  Everything is exact; no
floats anywhere.
"""

from __future__ import annotations

from operator import add, index, mul


class LatticeError(Exception):
    """Raised for malformed lattices or mismatched lattice operations."""


class ParityError(LatticeError):
    """Raised when D^2 + D.K is odd, so the arithmetic genus is not an integer."""


class IntersectionLattice:
    """Symmetric integer bilinear form with a distinguished canonical class.

    Lattices compare by labels, Gram and canonical class, not by display ``name``.
    """

    __slots__ = ("basis_labels", "gram", "canonical", "name")

    def __init__(self, basis_labels: tuple[str, ...], gram: tuple[tuple[int, ...], ...],
                 canonical: tuple[int, ...], name: str = "") -> None:
        n = len(basis_labels)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise LatticeError("gram matrix shape does not match basis")
        if len(canonical) != n:
            raise LatticeError("canonical class length does not match basis")
        rows = tuple(map(tuple, gram))
        if tuple(zip(*rows)) != rows:
            raise LatticeError("gram matrix is not symmetric")
        self.basis_labels, self.gram = basis_labels, rows
        self.canonical, self.name = canonical, name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntersectionLattice) and all(
            getattr(self, f) == getattr(other, f) for f in ("basis_labels", "gram", "canonical"))

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def image(self, v: tuple[int, ...]) -> list[int]:
        """G.v, the row sums: the one Gram product every pairing is read from."""
        if len(v) != self.rank:
            raise LatticeError("coefficient vector length does not match the lattice rank")
        return [sum(map(mul, row, v)) for row in self.gram]

    def dot(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        if len(u) != self.rank:
            raise LatticeError("coefficient vector length does not match the lattice rank")
        return sum(map(mul, u, self.image(v)))

    def divisor(self, coeffs) -> "DivisorClass":
        try:
            coeffs = tuple(map(index, coeffs))
        except TypeError:
            raise LatticeError(f"coefficients {coeffs!r} are not all integers") from None
        return DivisorClass(self, coeffs)

    def by_label(self, **labelled: int) -> "DivisorClass":
        """Build a class from ``label=coefficient`` keyword pairs."""
        coeffs = [0] * self.rank
        position = {lab: i for i, lab in enumerate(self.basis_labels)}
        for lab, c in labelled.items():
            if lab not in position:
                raise LatticeError(f"no basis label {lab!r} in {self.basis_labels}")
            coeffs[position[lab]] = c
        return self.divisor(coeffs)

    def basis_class(self, label: str) -> "DivisorClass":
        return self.by_label(**{label: 1})

    @property
    def k(self) -> "DivisorClass":
        return self.divisor(self.canonical)

    @classmethod
    def plane_blow_up(cls, n_points: int) -> "IntersectionLattice":
        """Plane blown up at ``n_points`` points: basis (H; E_1..E_n)."""
        labels = ("H",) + tuple(f"E{i}" for i in range(1, n_points + 1))
        size = n_points + 1
        gram = tuple(
            tuple((1 if i == j == 0 else -1 if i == j else 0) for j in range(size))
            for i in range(size)
        )
        canonical = (-3,) + (1,) * n_points
        return cls(labels, gram, canonical, name=f"P2+{n_points}")

    @classmethod
    def hirzebruch(cls, a: int) -> "IntersectionLattice":
        """F_a with basis (c, f): c^2=-a, f^2=0, c.f=1, K=-2c-(a+2)f."""
        gram = ((-a, 1), (1, 0))
        return cls(("c", "f"), gram, (-2, -(a + 2)), name=f"F{a}")


class DivisorClass:
    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: IntersectionLattice, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) != lattice.rank:
            raise LatticeError("coefficient vector length does not match basis")
        self.lattice, self.coeffs = lattice, coeffs

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_lattice(other)
        return DivisorClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_lattice(other)
        return DivisorClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(scalar * a for a in self.coeffs))

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


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number coeffs^T . gram . coeffs; bilinear and symmetric."""
    return d1.dot(d2)


def arithmetic_genus(d: DivisorClass) -> int:
    """1 + (D^2 + D.K)/2; rejects classes with odd D^2 + D.K."""
    lat = d.lattice
    total = lat.dot(d.coeffs, tuple(map(add, d.coeffs, lat.canonical)))  # D.(D + K)
    if total % 2 != 0:
        raise ParityError(f"D^2 + D.K = {total} is odd")
    return 1 + total // 2


def canonical_degree(square: int, genus: int = 0) -> int:
    """C.K = 2 p_a - 2 - C^2, adjunction: ``arithmetic_genus`` solved for C.K."""
    return 2 * genus - 2 - square


def blow_up(lattice: IntersectionLattice) -> IntersectionLattice:
    """Append one exceptional basis vector of square -1, orthogonal to the rest."""
    n = lattice.rank
    label = f"E{n}"
    while label in lattice.basis_labels:
        label += "'"
    gram = tuple(row + (0,) for row in lattice.gram) + ((0,) * n + (-1,),)
    return IntersectionLattice(
        lattice.basis_labels + (label,),
        gram,
        lattice.canonical + (1,),
        name=lattice.name + "+1" if lattice.name else "",
    )


def index_slack(d_square: int, d_dot_n: int, n_square: int) -> int:
    """(D.N)^2 - D^2 N^2, which the index theorem makes >= 0 when N^2 > 0.

    On a surface it is zero exactly when D is numerically proportional to N.
    """
    if n_square <= 0:
        raise LatticeError("index rule needs N^2 > 0")
    return d_dot_n ** 2 - d_square * n_square


def hodge_index_filter(d: DivisorClass, n: DivisorClass) -> bool:
    """Index-theorem rejection predicate: False for the classes D that violate
    it against N with N^2 > 0.

    Same as (N^2 D - (D.N) N)^2 <= 0, since that square is N^2 times
    N^2 D^2 - (D.N)^2.
    """
    d._same_lattice(n)
    gd = d.lattice.image(d.coeffs)  # G.d gives D^2 and D.N
    return index_slack(sum(map(mul, d.coeffs, gd)), sum(map(mul, n.coeffs, gd)),
                       n.square) >= 0
