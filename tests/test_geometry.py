"""Shape constructors, membership, sampling, and serialization."""

import numpy as np
import pytest

from sigma_eikonal.geometry import (
    Ball,
    Box,
    Ellipse,
    GeometryError,
    GraphHypersurface,
    OffsetBody,
    SampledSurface,
    load_shape,
    make_random_polytope,
    save_shape,
    shape_from_spec,
)

from conftest import dense_boundary_distance


# ---------------------------------------------------------------------------
# oracles computed independently of the module under test
# ---------------------------------------------------------------------------

def brute_force_inradius(poly, n=801):
    """Chebyshev radius by dense scan: max over interior nodes of the
    smallest facet slack.  The slack function is 1-Lipschitz, so the scan
    underestimates by at most one grid diagonal."""
    lo, hi = poly.bbox()
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    slack = (poly.offsets[None, :] - pts @ poly.normals.T).min(axis=1)
    return float(slack.max())


# Steiner formula for the 0.5-offset of the [-1,1]^2 square:
# area 4 + 0.5 * perimeter 8 + pi * 0.25, frozen against a seeded
# Monte Carlo estimate (8.7846 +- 0.0076 with 2e6 samples).
STEINER_AREA = 4.0 + 0.5 * 8.0 + np.pi * 0.25


def test_square_polytope_basics(unit_square):
    sq = unit_square
    assert sq.normals.shape[0] == 4
    assert sq.inradius() == pytest.approx(1.0, abs=1e-12)
    assert sq.diameter() == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    assert sq.area() == pytest.approx(4.0, abs=1e-12)
    assert sq.perimeter() == pytest.approx(8.0, abs=1e-12)


def test_box_extents_are_half_widths():
    b = Box((2.0, 3.0))
    assert b.contains((1.9, -2.9))
    assert not b.contains((2.1, 0.0))
    assert b.inradius() == pytest.approx(2.0)
    assert b.diameter() == pytest.approx(2.0 * np.hypot(2.0, 3.0))


def test_box_polytope_is_built_once_and_extents_are_read_only():
    given = np.array([2.0, 3.0])
    b = Box(given)
    poly = b.as_polytope()
    assert b.as_polytope() is poly
    assert np.array_equal(poly.vertices[:, 0] ** 2, np.full(4, 4.0))
    with pytest.raises(AttributeError):
        b.extents = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        b.extents[0] = 1.0
    given[0] = 5.0                  # the box keeps its own copy
    assert b.extents[0] == 2.0


def test_polytope_inradius_matches_dense_scan():
    for seed in (3, 7, 21):
        poly = make_random_polytope(12, seed=seed)
        oracle = brute_force_inradius(poly)
        assert poly.inradius() == pytest.approx(oracle, abs=0.01)
        assert poly.inradius() >= oracle - 1e-12


def test_support_value_matches_dense_boundary_maximum():
    poly = make_random_polytope(10, seed=4)
    surf = poly.boundary_sample(0.01)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        sup = poly.support(u)
        sampled_max = (surf.points @ u).max()
        assert sup >= sampled_max - 1e-9
        assert sup <= sampled_max + 0.01  # sampling gap only


def test_polytope_vertices_lie_on_boundary():
    poly = make_random_polytope(9, seed=2)
    verts = poly.hull().points[poly.hull().vertices]
    assert np.all(poly.contains(verts))
    assert np.all(poly.boundary_distance(verts) <= 1e-9)


def test_offset_membership_matches_base_distance(unit_square):
    body = OffsetBody(unit_square, 0.5)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2.0, 2.0, size=(500, 2))
    base_in = unit_square.contains(pts)
    base_d = unit_square.boundary_distance(pts)
    dist_to_base = np.where(base_in, 0.0, base_d)
    member = dist_to_base <= 0.5 + 1e-12
    assert np.array_equal(body.contains(pts), member)


def test_offset_area_and_perimeter_match_steiner(unit_square):
    body = OffsetBody(unit_square, 0.5)
    assert body.area() == pytest.approx(STEINER_AREA, abs=1e-9)
    assert body.perimeter() == pytest.approx(8.0 + np.pi, abs=1e-9)
    assert body.inradius() == pytest.approx(1.5, abs=1e-12)


def test_offset_area_matches_monte_carlo(unit_square):
    body = OffsetBody(unit_square, 0.5)
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.6, 1.6, size=(200_000, 2))
    frac = body.contains(pts).mean()
    mc = frac * 3.2 ** 2
    assert body.area() == pytest.approx(mc, abs=0.08)


def test_ball_basics():
    b = Ball((0.0, 0.0), 1.0)
    assert b.inradius() == 1.0
    assert b.diameter() == 2.0
    assert b.boundary_distance([(0.0, 0.0)])[0] == pytest.approx(1.0)
    assert b.boundary_distance([(2.0, 0.0)])[0] == pytest.approx(1.0)
    assert "ball" in b.describe()


def test_ellipse_nearest_point_matches_dense_scan():
    ell = Ellipse((2.0, 1.0))
    assert ell.diameter() == pytest.approx(4.0)
    assert ell.inradius() == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3.0, 3.0, size=(40, 2))
    d_pkg = ell.boundary_distance(pts)
    d_oracle = dense_boundary_distance(ell, pts, spacing=0.002)
    assert np.abs(d_pkg - d_oracle).max() <= 0.002


def test_ellipse_axis_points_exact():
    ell = Ellipse((2.0, 1.0))
    assert ell.boundary_distance([(3.0, 0.0)])[0] == pytest.approx(1.0, abs=1e-9)
    assert ell.boundary_distance([(0.0, 2.5)])[0] == pytest.approx(1.5, abs=1e-9)
    near = ell.nearest_boundary_point((3.0, 0.0))
    assert np.allclose(near, (2.0, 0.0), atol=1e-9)


def test_graph_samples_lie_on_curve():
    g = GraphHypersurface(alpha=0.5, base=4, terms=3, window=(0.0, 1.0))
    surf = g.boundary_sample(0.01)
    resid = np.abs(surf.points[:, 1] - g.profile(surf.points[:, 0]))
    assert resid.max() <= 1e-12
    # normals point into the upper region
    assert np.all(surf.normals[:, 1] > 0.0)
    assert np.abs(np.linalg.norm(surf.normals, axis=1) - 1.0).max() <= 1e-9


def test_graph_profile_is_partial_cosine_sum():
    g = GraphHypersurface(alpha=0.5, base=4, terms=2, window=(0.0, 1.0))
    x = np.array([0.0, 0.3, 0.7])
    expected = np.cos(np.pi * x) + 4.0 ** -1.5 * np.cos(4.0 * np.pi * x)
    assert np.allclose(g.profile(x), expected, atol=1e-14)


def test_graph_parameter_validation():
    with pytest.raises(GeometryError):
        GraphHypersurface(alpha=1.5, base=4, terms=2)
    with pytest.raises(GeometryError):
        GraphHypersurface(alpha=0.5, base=1, terms=2)
    with pytest.raises(GeometryError):
        GraphHypersurface(alpha=0.5, base=4, terms=0)
    with pytest.raises(GeometryError):
        GraphHypersurface(alpha=0.5, base=4, terms=2, window=(1.0, 1.0))
    with pytest.raises(GeometryError):
        GraphHypersurface(alpha=0.5, base=4, terms=2, dim=4)


def test_sampled_surface_tree_and_diameter(unit_disk):
    surf = unit_disk.boundary_sample(0.01)
    assert isinstance(surf, SampledSurface)
    # diameter is the bbox diagonal, a cheap scale proxy
    assert 2.0 <= surf.diameter() <= 2.0 * np.sqrt(2.0) + 0.01
    assert len(surf) >= 600
    d = surf.boundary_distance(np.array([[0.0, 0.0]]))
    assert d[0] == pytest.approx(1.0, abs=0.01)


def test_boundary_sample_spacing_guard(unit_square):
    with pytest.raises(GeometryError):
        unit_square.boundary_sample(1e-9)


def test_make_random_polytope_deterministic():
    a = make_random_polytope(8, seed=13)
    b = make_random_polytope(8, seed=13)
    assert np.array_equal(a.normals, b.normals)
    assert np.array_equal(a.offsets, b.offsets)
    c = make_random_polytope(8, seed=15)
    assert not np.array_equal(a.normals, c.normals)


def test_unbounded_normal_draw_is_rejected():
    # seed 14 with 8 facets leaves all normals in a half plane; the
    # constructor refuses it instead of silently resampling
    with pytest.raises(GeometryError):
        make_random_polytope(8, seed=14)


def test_shape_spec_round_trip(tmp_path, unit_square):
    shapes = [
        Ball((0.25, -0.5), 1.5),
        Box((1.0, 2.0)),
        Ellipse((2.0, 1.0)),
        unit_square,
        OffsetBody(unit_square, 0.5),
        GraphHypersurface(alpha=0.5, base=4, terms=3, window=(0.5, 1.5)),
    ]
    for i, s in enumerate(shapes):
        path = tmp_path / f"shape_{i}.json"
        save_shape(s, path)
        back = load_shape(path)
        assert back.describe() == s.describe()


def test_shape_from_spec_rejects_unknown():
    with pytest.raises(GeometryError):
        shape_from_spec({"kind": "torus"})
