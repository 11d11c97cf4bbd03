"""Batched 3D kernel and list-based marching against their loop oracles.

The oracles in ``oracles.py`` are the per-node loops the production code
replaced.  Both forms run the same arithmetic in the same order, so the
arrays must be equal bit for bit, not merely close.
"""

import numpy as np
import pytest

from sigma_eikonal.distance import distance_field, grid_covering
from sigma_eikonal.eikonal import EikonalProblem, fast_march, problem_from_shape
from sigma_eikonal.geometry import (
    Ball,
    OffsetBody,
    _closest_point_triangles,
    make_random_polytope,
)
from sigma_eikonal.projection import project

import oracles

SEEDS = (1, 2, 7)
FACETS, EPS, H = 32, 0.3, 0.6


def radial(rng, n, lo, hi):
    """n points in random directions at radii drawn from [lo, hi)."""
    d = rng.normal(size=(n, 3))
    return d * rng.uniform(lo, hi, (n, 1)) / np.linalg.norm(d, axis=1,
                                                            keepdims=True)


def query_points(poly, grid, seed):
    """Grid nodes, interior points and far exterior points."""
    rng = np.random.default_rng(seed)
    verts = poly.vertices
    # a tangent polytope contains the unit ball, so convex combinations of
    # a vertex and a unit-ball point lie inside
    t = rng.uniform(0.0, 1.0, (400, 1))
    inner = (t * verts[rng.integers(0, len(verts), 400)]
             + (1.0 - t) * radial(rng, 400, 0.0, 1.0))
    return np.vstack([grid.points(), inner, radial(rng, 400, 5.0, 50.0)])


@pytest.fixture(scope="module", params=SEEDS)
def case(request):
    poly = make_random_polytope(FACETS, request.param, dim=3)
    body = OffsetBody(poly, EPS)
    grid = grid_covering(body, H)
    pts = query_points(poly, grid, request.param)
    d_ref = oracles.polytope_boundary_distance_3d(poly, pts)
    return poly, body, grid, pts, d_ref


def test_polytope_kernel_matches_loop(case):
    poly, _, _, pts, d_ref = case
    assert np.array_equal(poly.boundary_distance(pts), d_ref)


def test_offset_kernel_matches_loop(case):
    poly, body, _, pts, d_ref = case
    inside = poly.contains(pts)
    ref = np.where(inside, d_ref + EPS, np.abs(d_ref - EPS))
    assert np.array_equal(body.boundary_distance(pts), ref)


def test_distance_fields_match_loop(case):
    poly, body, grid, _, d_ref = case
    nodes = d_ref[:grid.n_nodes]
    assert np.array_equal(distance_field(poly, grid).values.ravel(), nodes)
    inside = poly.contains(grid.points())
    ref = np.where(inside, nodes + EPS, np.abs(nodes - EPS))
    assert np.array_equal(distance_field(body, grid).values.ravel(), ref)


def test_batched_feet_match_single_point_feet(case):
    poly, _, _, pts, _ = case
    hull = poly.hull()
    tri = tuple(hull.points[hull.simplices[:, k]] for k in range(3))
    sub = pts[::7]
    feet = _closest_point_triangles(sub, *tri)
    for p, f in zip(sub, feet):
        assert np.array_equal(f, oracles.closest_point_triangles_one(p, *tri))


def test_projection_distance_matches_loop(case):
    poly, _, _, pts, d_ref = case
    for k in range(0, len(pts), 97):
        assert project(poly, pts[k]).distance == d_ref[k]


def assert_same_march(problem):
    ref = oracles.fast_march(problem)
    out = fast_march(problem)
    assert np.array_equal(out.values, ref.values)
    assert out.meta == ref.meta
    assert out.kind == ref.kind


def test_disk_march_matches_loop():
    disk = Ball((0.0, 0.0), 1.0)
    assert_same_march(problem_from_shape(disk, grid_covering(disk, 1.0 / 64)))


def test_3d_marches_match_loop(case):
    poly, body, grid, _, _ = case
    assert_same_march(problem_from_shape(poly, grid))
    assert_same_march(problem_from_shape(body, grid))


def test_two_corner_seeds_march_matches_loop():
    """Fronts from opposite corners meet on a plane of equal values, where
    the (value, flat index) heap order decides which node is accepted."""
    grid = grid_covering(Ball((0.0, 0.0, 0.0), 1.0), 0.25)
    n = grid.dims
    seeds = [((0, 0, 0), 0.0), ((n[0] - 1, n[1] - 1, n[2] - 1), 0.0)]
    assert_same_march(EikonalProblem(grid, seeds))
