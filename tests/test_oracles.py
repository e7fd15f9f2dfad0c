"""The sympy oracles in tools/ against the constants frozen from them.

Both oracles run as subprocesses and import nothing from the package; the
test is skipped where sympy is not installed."""

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from test_acceptance import ORACLE_CENSUS_DISTINCT_D
from twocovers.algebra import Poly
from twocovers.constructions import D_TO_E, INFINITY_IMAGE, conic_poly, plane_relation_poly

sp = pytest.importorskip("sympy")

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _run(name):
    done = subprocess.run(
        [sys.executable, str(TOOLS / name)], capture_output=True, text=True, check=True
    )
    return done.stdout


def _booleans(obj):
    if isinstance(obj, bool):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _booleans(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _booleans(value)


@pytest.fixture(scope="module")
def identities():
    return json.loads(_run("identity_oracle.py"))


def test_every_identity_holds(identities):
    assert identities["quartic_map_on_curve"] is True
    assert identities["quartic_map_inverse_identity"] is True
    assert all(_booleans(identities))


def test_map_D_to_E_matches(identities):
    coeffs = identities["quartic_map_coeffs_low_to_high"]
    (xa, xb), (ya, yb) = D_TO_E
    for name, poly in (("xa", xa), ("xb", xb), ("ya", ya), ("yb", yb)):
        assert [F(c) for c in coeffs[name]] == poly.coeffs, name


def test_infinity_image_matches(identities):
    assert tuple(F(c) for c in identities["infinity_image_plus_branch"]) == INFINITY_IMAGE


def _expr(c, names):
    """A nested Poly as a sympy expression in names, outermost variable
    first; a scalar at any level is a constant."""
    if isinstance(c, Poly):
        var = sp.Symbol(names[0])
        return sum(_expr(ci, names[1:]) * var**i for i, ci in enumerate(c.coeffs))
    return sp.Rational(c.numerator, c.denominator)


def _same_z_coeffs(F, names, printed):
    """F, a Poly in z, has the z-coefficients the oracle printed."""
    return len(F.coeffs) == len(printed) and all(
        sp.expand(_expr(c, names) - sp.sympify(s)) == 0 for c, s in zip(F.coeffs, printed)
    )


def test_conic_matches(identities):
    assert _same_z_coeffs(conic_poly(Poly.gen()), ("x", "A"), identities["conic_poly_in_z_coeffs"])


def test_plane_relation_matches(identities):
    assert _same_z_coeffs(plane_relation_poly(), ("x",), identities["F_poly_in_z_coeffs"])


def test_census_distinct_d_count():
    lines = _run("census_oracle.py").splitlines()
    assert f"distinct d count: {ORACLE_CENSUS_DISTINCT_D}" in lines
