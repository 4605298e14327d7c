"""Invariant bookkeeping for the order-3 quotient of a numerical Godeaux surface.

Fixed-point counts, transfer of K^2 between the surface, the resolved cover
and the quotient, the dimension formulas that gate the case analysis, and
the brute-force enumeration that yields exactly the three main cases.  The
other layers read K_S^2, h_1 and K_Y^2 from here.
"""

from __future__ import annotations

from typing import NamedTuple


class CaseInvalidError(Exception):
    """A numerical combination violates one of the constructor identities."""


KS2 = 1  # K_S^2 of a numerical Godeaux surface, which has chi = 1 and p_g = 0


class RamificationData:
    """Divisorial ramification invariants plus the isolated fixed-point counts.

    ``r0k`` is R_0.K_S, ``ell`` the number of disjoint (-2)-components of R_0,
    ``gamma_sq`` the square of the positive-degree component (present exactly
    when r0k=1), ``h1``/``h2`` the counts of isolated fixed points over triple
    points resp. A_2 points of the quotient.  Equal and hashed by value: the
    K_Y^2 node keys its values by ramification datum.
    """

    __slots__ = ("r0k", "ell", "h2", "gamma_sq")

    def __init__(self, r0k: int, ell: int, h2: int, gamma_sq: int | None = None) -> None:
        if r0k not in (0, 1):
            raise CaseInvalidError("R_0.K_S must be 0 or 1")
        if ell < 0 or h2 < 0:
            raise CaseInvalidError("counts must be nonnegative")
        if r0k == 1:
            if gamma_sq is None:
                raise CaseInvalidError("gamma_sq required when R_0.K_S = 1")
            if gamma_sq > 1:
                raise CaseInvalidError("index theorem forces gamma_sq <= 1")
            if (3 - gamma_sq) % 2 != 0:
                raise CaseInvalidError("gamma_sq must be odd when R_0.K_S = 1")
        elif gamma_sq is not None:
            raise CaseInvalidError("gamma_sq only meaningful when R_0.K_S = 1")
        self.r0k, self.ell, self.h2, self.gamma_sq = r0k, ell, h2, gamma_sq
        if self.h1 < 0:
            raise CaseInvalidError("negative h1")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RamificationData) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self.__slots__))

    @property
    def r0sq(self) -> int:
        if self.r0k == 0:
            return -2 * self.ell
        return self.gamma_sq - 2 * self.ell

    @property
    def h1(self) -> int:
        return fixed_point_budget(self) - 2 * self.h2


def fixed_point_budget(r: RamificationData) -> int:
    """h_1 + 2 h_2 = 6 + (3 R_0.K_S - R_0^2)/2."""
    num = 3 * r.r0k - r.r0sq
    if num % 2 != 0:
        raise CaseInvalidError("fixed point budget is not an integer")
    return 6 + num // 2


def quotient_k2(r: RamificationData) -> int:
    """K_Y^2 computed by two independent routes; they must agree exactly.

    The Euler-number route (K_X^2 + 4 R_0^2 - 4 R_0.K)/3 and the h_2 route
    (K_S^2 - 6 - h_2)/3 + 3/2 R_0^2 - 11/6 R_0.K are compared as 6 K_Y^2.
    """
    via_euler = 2 * (kx2_via_blowup(r) + 4 * r.r0sq - 4 * r.r0k)
    via_h2 = 2 * (KS2 - 6 - r.h2) + 9 * r.r0sq - 11 * r.r0k
    if via_euler != via_h2:
        raise CaseInvalidError(f"K_Y^2 formulas disagree: {via_euler}/6 vs {via_h2}/6")
    if via_euler % 6:
        raise CaseInvalidError(f"K_Y^2 = {via_euler}/6 is not an integer")
    return via_euler // 6


def image_square(c_sq: int) -> int:
    """C'^2 = 3 C^2 for the image C' on Y of a curve C fixed pointwise: pi^* C' = 3 C."""
    return 3 * c_sq


def kx2(r: RamificationData, ky2: int) -> int:
    """K_X^2 = 3 K_Y^2 - 4 R_0^2 + 4 R_0.K_S."""
    return 3 * ky2 - 4 * r.r0sq + 4 * r.r0k


def kx2_via_blowup(r: RamificationData) -> int:
    """The cross-check K_X^2 = K_S^2 - (h_1 + 3 h_2)."""
    return KS2 - (r.h1 + 3 * r.h2)


# The R_0.K_S that h0_pair admits: R_0.K_S >= 0, as K_S is nef and R_0 effective,
# and h^0(N) = 2 + R_0.K_S < 4, as the tricanonical map is birational.
_R0K = range(0, 2)
_H0_2KB_MAX = 2  # the largest h^0(2K_Y+B) that h0_pair admits


def h0_pair(r0k: int, h2: int) -> tuple[int, int]:
    """(h^0(N), h^0(2K_Y+B)) for given R_0.K_S and h_2.

    Raises :class:`CaseInvalidError` when R_0.K_S is outside ``_R0K`` or the
    second value is not an integer in [0, ``_H0_2KB_MAX``].
    """
    if r0k < _R0K.start:
        raise CaseInvalidError("R_0.K_S < 0, but K_S is nef and R_0 effective")
    if r0k >= _R0K.stop:
        raise CaseInvalidError("h^0(N) = 4 would make the tricanonical map invariant")
    h0_n = 2 + r0k
    num = 2 * h2 - 2 - r0k
    if num % 3 != 0:
        raise CaseInvalidError("h^0(2K_Y+B) is not an integer")
    h0_2kb = num // 3
    if not 0 <= h0_2kb <= _H0_2KB_MAX:
        raise CaseInvalidError(f"h^0(2K_Y+B) = {h0_2kb} out of range [0, {_H0_2KB_MAX}]")
    return h0_n, h0_2kb


class CaseRecord(NamedTuple):
    """One of the main cases of the analysis."""

    id: str
    r0k: int
    h2: int
    h0_n: int
    h0_2kb: int


_CASE_IDS = {(1, 3): "i", (0, 4): "ii", (0, 1): "iii"}
# R_0.K_S -> the largest h_2 that h0_pair can admit, for _R0K and one past it:
# 3 h^0(2K_Y+B) = 2 h_2 - 2 - R_0.K_S <= 3 _H0_2KB_MAX, so a search to there is exhaustive.
H2_WINDOWS = {r0k: (3 * _H0_2KB_MAX + 2 + r0k) // 2 for r0k in range(_R0K.stop + 1)}


def enumerate_main_cases(h2_max: int | None = None) -> list[CaseRecord]:
    """Search each R_0.K_S's ``H2_WINDOWS`` window, cut at ``h2_max`` if given."""
    out = []
    for r0k, top in H2_WINDOWS.items():  # one R_0.K_S past _R0K, which h0_pair rejects
        for h2 in range((top if h2_max is None else min(top, h2_max)) + 1):
            try:
                h0_n, h0_2kb = h0_pair(r0k, h2)
            except CaseInvalidError:
                continue
            out.append(CaseRecord(_CASE_IDS[r0k, h2], r0k, h2, h0_n, h0_2kb))
    out.sort(key=lambda c: list(_CASE_IDS.values()).index(c.id))
    return out
