"""Exact constructions of hyperelliptic curves with two independent maps to
an elliptic curve, with symbolic verification, zeta-function evidence for the
Jacobian decompositions, and a bounded-height quadratic-twist census."""

from .algebra import Fp, Poly, quadratic_character
from .constructions import (
    build_family,
    build_thm1,
    covering_maps,
    odd_covering_maps,
    params_from_j,
    parametrize,
)
from .curves import (
    CubicModel,
    ECPoint,
    HyperellipticModel,
    QuarticModel,
    discriminant,
    ec_add,
    ec_scalar,
    hyperelliptic_genus,
    j_invariant,
    on_curve,
    quadratic_twist,
    twist_factor,
)
from .twists import census, growth_table, independence_screen, squarefree_part
from .verify import run_suite
from .zeta import (
    LPolynomial,
    check_remarks,
    count_hyperelliptic,
    count_space_curve,
    count_weierstrass,
    good_primes,
    lpoly_divides,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
