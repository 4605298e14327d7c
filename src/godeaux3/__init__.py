"""Exact-arithmetic replay of the proof that a numerical Godeaux surface
admits no automorphism of order three.

The whole proof runs through :func:`run`, which replays the proof tree and
returns a report of what was verified and what is assumed.  The other names
below are the entry points of single layers: integer intersection theory on
blown-up rational surfaces, the main-case gate, the invariant-pencil
enumeration, the adjoint-ladder identities and the plane Cremona endgame.
Everything else is reached through its module, e.g. ``godeaux3.fibration``.
"""

from .adjoint import adjoint_table, n_range, verify_ladder_identity
from .cover import (KS2, RamificationData, enumerate_main_cases, fixed_point_budget, h0_pair,
                    kx2, quotient_k2)
from .delpezzo import sixtuple_enumerate
from .lattice import (IntersectionLattice, arithmetic_genus, blow_up,
                      hodge_index_filter, intersect)
from .pencil import ar0_upper, enumerate_pencil_cases, subsystem_split
from .plane import cremona_orbit_connect, solve_multiplicity_system
from .report import run
from .ruled import homaloidal_eliminate

__all__ = [
    "IntersectionLattice", "KS2", "RamificationData", "adjoint_table",
    "ar0_upper", "arithmetic_genus", "blow_up",
    "cremona_orbit_connect", "enumerate_main_cases",
    "enumerate_pencil_cases", "fixed_point_budget", "h0_pair",
    "hodge_index_filter", "homaloidal_eliminate", "intersect", "kx2", "n_range",
    "quotient_k2", "run", "sixtuple_enumerate", "solve_multiplicity_system",
    "subsystem_split", "verify_ladder_identity",
]
