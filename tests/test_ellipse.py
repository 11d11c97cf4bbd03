"""The exact ellipse against its scalar oracle and the properties its
distance rests on.

The oracle is the one-point brentq solve of the foot equation
(``oracles.ellipse_nearest_point``).  The properties hold for any
semi-axes: a foot lies on the ellipse and attains the distance, no
boundary point of a dense parametric scan is nearer, the distance is
1-Lipschitz, the singular set lies inside the ellipse, and a circle's
centre ties the whole circle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigma_eikonal import geometry, projection
from sigma_eikonal.distance import distance_field, grid_covering
from sigma_eikonal.geometry import Ellipse, GeometryError
from sigma_eikonal.projection import project
from sigma_eikonal.singular import detect_multiproj

import oracles

PROPERTY = settings(max_examples=40, deadline=None)
FIELD_PROPERTY = settings(max_examples=6, deadline=None)

axes = st.floats(0.2, 2.0)
coord = st.floats(-4.0, 4.0, allow_nan=False)
points = st.lists(st.tuples(coord, coord), min_size=1, max_size=10)


def scan_distance(ellipse, pts, n=2000):
    """Distance to the nearest of n parametric points of the ellipse."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    a, b = ellipse.semi_axes
    ring = np.column_stack([a * np.cos(t), b * np.sin(t)])
    return np.linalg.norm(pts[:, None, :] - ring[None], axis=2).min(axis=1)


def test_distance_matches_the_scalar_oracle():
    ellipse = Ellipse((1.0, 0.5))
    grid = grid_covering(ellipse, 1.0 / 64)
    field = distance_field(ellipse, grid).values.reshape(-1)
    ref = oracles.ellipse_boundary_distance(ellipse, grid.points())
    assert np.abs(field - ref).max() <= 1e-12
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(1000, 2))
    ref = oracles.ellipse_boundary_distance(ellipse, pts)
    assert np.abs(ellipse.boundary_distance(pts) - ref).max() <= 1e-12


def test_a_point_inside_the_evolute_has_two_local_minima():
    """At (0.3, 0.05) the nearest foot and the second local minimum, on
    the far side of the major axis, both of which a 2,000,000-point brute
    force finds as local minima."""
    ellipse = Ellipse((1.0, 0.5))
    x = np.array([0.3, 0.05])
    res = project(ellipse, x, tau_multi=0.1)
    assert res.nearest == pytest.approx(
        np.array([[0.38605, 0.46124], [0.41521, -0.45486]]), abs=1e-5)
    assert np.linalg.norm(res.nearest - x, axis=1) == pytest.approx(
        [0.42015, 0.51784], abs=1e-5)
    assert not res.is_singleton
    assert project(ellipse, x, tau_multi=0.05).nearest.shape == (1, 2)


@pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 32], ids=["h16", "h32"])
def test_flags_are_exactly_the_non_singleton_projections(h):
    ellipse = Ellipse((1.0, 0.5))
    grid = grid_covering(ellipse, h)
    mask = detect_multiproj(ellipse, grid)
    pts, flags = grid.points(), mask.flags.reshape(-1)
    for i in np.flatnonzero(~mask.excluded.reshape(-1)):
        assert project(ellipse, pts[i], h).is_singleton == (not flags[i])


def test_ellipse_is_2d_only():
    with pytest.raises(GeometryError):
        Ellipse((1.0, 0.5, 0.25))


@PROPERTY
@given(a=axes, b=axes, pts=points)
def test_foot_lies_on_the_ellipse_and_attains_the_distance(a, b, pts):
    ellipse = Ellipse((a, b))
    for x in np.array(pts):
        res = project(ellipse, x)
        foot = res.nearest[0]
        assert abs(((foot / ellipse.semi_axes) ** 2).sum() - 1.0) <= 1e-12
        assert abs(np.linalg.norm(x - foot) - res.distance) <= 1e-12
        assert res.distance == ellipse.boundary_distance(x)[0]


@PROPERTY
@given(a=axes, b=axes, pts=points)
def test_no_scanned_boundary_point_is_nearer(a, b, pts):
    ellipse = Ellipse((a, b))
    pts = np.array(pts)
    assert np.all(ellipse.boundary_distance(pts)
                  <= scan_distance(ellipse, pts) + 1e-12)


@PROPERTY
@given(a=axes, b=axes, x=points, y=points)
def test_distance_is_1_lipschitz(a, b, x, y):
    ellipse = Ellipse((a, b))
    n = min(len(x), len(y))
    x, y = np.array(x[:n]), np.array(y[:n])
    gap = np.abs(ellipse.boundary_distance(x) - ellipse.boundary_distance(y))
    assert np.all(gap <= np.linalg.norm(x - y, axis=1) + 1e-12)


@FIELD_PROPERTY
@given(a=axes, b=axes)
def test_field_is_1_lipschitz_and_no_flag_lies_outside(a, b):
    ellipse = Ellipse((a, b))
    grid = grid_covering(ellipse, 1.0 / 16)
    assert distance_field(ellipse, grid).lipschitz_violation(slack=1e-12) \
        == 0.0
    mask = detect_multiproj(ellipse, grid)
    assert not mask.flags.reshape(-1)[~ellipse.contains(grid.points())].any()


@PROPERTY
@given(a=axes)
def test_circle_centre_is_a_tie_across_the_diameter(a):
    res = project(Ellipse((a, a)), np.zeros(2))
    assert res.distance == a
    assert not res.is_singleton
    assert res.spread == 2.0 * a


def test_detection_bisects_the_feet_once(monkeypatch):
    """detect_multiproj solves the foot equation in one pass, which gives
    both the flags and the memo's distance, so a field read after it
    solves nothing more."""
    calls = []
    feet = geometry._ellipse_feet

    def counting(ellipse, pts, second=False):
        calls.append(second)
        return feet(ellipse, pts, second)

    monkeypatch.setattr(geometry, "_ellipse_feet", counting)
    monkeypatch.setattr(projection, "_ellipse_feet", counting)
    ellipse = Ellipse((1.0, 0.5))
    grid = grid_covering(ellipse, 1.0 / 32)
    mask = detect_multiproj(ellipse, grid)
    fld = distance_field(ellipse, grid)
    assert calls == [True]
    monkeypatch.undo()
    assert mask.n_flags > 0
    assert np.array_equal(fld.values.reshape(-1),
                          ellipse.boundary_distance(grid.points()))
