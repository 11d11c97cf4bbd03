"""Batched kernels, marching, multiproj rows, inner-ball bisection and
vertex dedupe against their loop oracles.

The oracles in ``oracles.py`` are the per-node loops the production code
replaced.  Both forms make the same decisions on the same arithmetic, so
the arrays must be equal bit for bit, not merely close.
"""

import numpy as np
import pytest

from sigma_eikonal import singular
from sigma_eikonal.distance import (
    GridSpec,
    _bulk_boundary_distance,
    distance_field,
    grid_covering,
)
from sigma_eikonal.eikonal import EikonalProblem, fast_march, problem_from_shape
from sigma_eikonal.geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GraphHypersurface,
    OffsetBody,
    SampledSurface,
    _closest_point_triangles,
    make_random_polytope,
)
from sigma_eikonal.innerball import inner_ball_profile, inner_ball_radius
from sigma_eikonal.projection import _offset_cycle, _polytope_cycle, project
from sigma_eikonal.singular import BAND_FACTOR, detect_multiproj

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


# ---------------------------------------------------------------------------
# 2D multiproj row resolution
# ---------------------------------------------------------------------------

MASK_SEEDS = {8: 3, 16: 1, 32: 2, 64: 1, 128: 1}
MASK_STEPS = (1.0 / 20, 1.0 / 32)


def oracle_flags(shape, grid, tau_multi):
    """detect_multiproj's flags with the rows resolved one by one."""
    if isinstance(shape, Box):
        shape = shape.as_polytope()
    h = grid.spacing
    pts = grid.points()
    dK = _bulk_boundary_distance(shape, pts)
    excluded = dK <= BAND_FACTOR * h
    if isinstance(shape, OffsetBody):
        cycle, extra = _offset_cycle(shape), {"shape": shape}
    else:
        cycle, extra = _polytope_cycle(shape), {}
    flags = oracles.detect_cycle(cycle, shape.diameter(), pts, dK, excluded,
                                 tau_multi, **extra)
    return (flags & ~excluded).reshape(grid.dims)


def assert_same_flags(shape, h, tau_multi=None):
    grid = grid_covering(shape, h)
    mask = detect_multiproj(shape, grid, tau_multi=tau_multi)
    assert np.array_equal(mask.flags,
                          oracle_flags(shape, grid, mask.params["tau_multi"]))
    return mask


@pytest.mark.parametrize("facets", sorted(MASK_SEEDS))
def test_polytope_and_offset_masks_match_row_loop(facets):
    poly = make_random_polytope(facets, MASK_SEEDS[facets])
    for shape in (poly, OffsetBody(poly, 0.1), OffsetBody(poly, 0.3)):
        for h in MASK_STEPS:
            assert_same_flags(shape, h)


def test_box_masks_match_row_loop_with_a_node_on_a_base_vertex():
    box = Box((1.0, 1.0))
    body = OffsetBody(box.as_polytope(), 0.5)
    for h in MASK_STEPS:
        assert_same_flags(box, h)
        mask = assert_same_flags(body, h)
        # the base corner (1, 1) is a grid node, flagged by the arc tie
        idx = np.round((np.array([1.0, 1.0]) - mask.grid.origin) / h)
        assert mask.flags[tuple(idx.astype(int))]


def test_spread_equal_to_the_tie_window_is_not_a_flag():
    """The centre of the square keeps four edge midpoints spread exactly
    2 apart; a tie window of 2 must leave it unflagged, as the loop does."""
    mask = assert_same_flags(Box((1.0, 1.0)), 0.25, tau_multi=2.0)
    centre = np.round(-np.asarray(mask.grid.origin) / 0.25).astype(int)
    assert not mask.flags[tuple(centre)]


def test_batched_feet_match_scalar_query():
    poly = make_random_polytope(16, 1)
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.uniform(-3.0, 3.0, (500, 2)), poly.vertices])
    for cycle in (_polytope_cycle(poly),
                  _offset_cycle(OffsetBody(poly, 0.3))):
        for el in cycle:
            ref = np.array([el.query(p)[1] for p in pts])
            assert np.array_equal(el.query_feet(pts), ref)


# ---------------------------------------------------------------------------
# sampled-surface multiproj rows
# ---------------------------------------------------------------------------

def assert_same_sampled_flags(shape, grid, tau_multi=None,
                              band_factor=BAND_FACTOR):
    """detect_multiproj's mask equals the row loop's on the same sampling."""
    mask = detect_multiproj(shape, grid, tau_multi=tau_multi,
                            band_factor=band_factor)
    surface = shape if isinstance(shape, SampledSurface) \
        else shape.boundary_sample(0.5 * grid.spacing)
    pts = grid.points()
    dK = _bulk_boundary_distance(surface, pts)
    excluded = dK <= band_factor * grid.spacing
    flags = oracles.detect_sampled(surface, pts, dK, excluded,
                                   mask.params["tau_multi"])
    assert np.array_equal(mask.flags,
                          (flags & ~excluded).reshape(grid.dims))
    return mask


def rough_graph(terms):
    return GraphHypersurface(0.5, 4, terms, window=(0.5, 1.5))


@pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64], ids=["h32", "h64"])
@pytest.mark.parametrize("terms", [1, 2, 3, 4, 5])
def test_rough_graph_sampled_masks_match_row_loop(terms, h):
    graph = rough_graph(terms)
    grid = grid_covering(graph, h, margin=0.1 + 4 * h)
    surface = graph.boundary_sample(0.5 * h, pad=0.3)
    assert not surface.closed
    mask = assert_same_sampled_flags(surface, grid)
    assert mask.params["multi_run_rows"] > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_offset_sampled_masks_match_row_loop(seed):
    body = OffsetBody(make_random_polytope(16, seed), 0.3)
    surface = body.boundary_sample(1.0 / 64)
    assert surface.closed
    mask = assert_same_sampled_flags(surface, grid_covering(body, 1.0 / 32))
    assert mask.params["multi_run_rows"] > 0


def test_sampled_disk_centre_is_one_wrapped_run():
    disk = Ball((0.0, 0.0), 1.0)
    grid = grid_covering(disk, 1.0 / 32)
    mask = assert_same_sampled_flags(disk.boundary_sample(1.0 / 64), grid)
    # every sample ties at the centre: one run through the chain's end,
    # flagged because it spans more than half the diameter
    centre = np.round(-np.asarray(grid.origin) / grid.spacing).astype(int)
    assert mask.flags[tuple(centre)]


@pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 20, 1.0 / 32])
def test_square_and_ellipse_sampled_masks_match_row_loop(h):
    square = Box((1.0, 1.0))
    assert_same_sampled_flags(square.boundary_sample(0.5 * h),
                              grid_covering(square, h))
    ellipse = Ellipse((1.0, 0.5))           # sampled inside detect_multiproj
    assert_same_sampled_flags(ellipse, grid_covering(ellipse, h))


def test_3d_sampled_masks_match_row_loop():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    mask = assert_same_sampled_flags(ball.boundary_sample(0.25),
                                     grid_covering(ball, 0.4))
    assert mask.n_flags > 0


def test_sampled_masks_match_row_loop_across_chunks(monkeypatch):
    monkeypatch.setattr(singular, "SAMPLED_ROWS_PER_CHUNK", 500)
    h = 1.0 / 32
    graph = rough_graph(5)
    assert_same_sampled_flags(graph.boundary_sample(0.5 * h, pad=0.3),
                              grid_covering(graph, h, margin=0.1 + 4 * h))
    body = OffsetBody(make_random_polytope(16, 1), 0.3)
    assert_same_sampled_flags(body.boundary_sample(0.5 * h),
                              grid_covering(body, h))


def test_wrapped_run_breaks_distance_ties_with_its_chain_tail_first():
    """A closed chain around the rectangle [-4, 4] x [-1, 1] that starts
    and ends in the middle of its top side, sampled 1/8 apart: (-1/16, 1)
    is its first sample and (1/16, 1) its last.  Both lie exactly as far
    from the origin, in one run through the chain's end.  The row loop
    lists that run's chain tail first and keeps the first of tied
    candidates, so the top representative is (1/16, 1); its spread to the
    bottom one, (1/32, -1), is sqrt(4 + 1/1024) < 2.001, and the origin is
    not a flag.  Keeping (-1/16, 1) instead would spread sqrt(4 + 9/1024)
    and flag it."""
    step = 0.125
    top_head = np.arange(-0.0625, -4.0, -step)
    left = np.arange(1.0 - step, -1.0, -step)
    bottom = np.arange(-4.0 + 0.03125, 4.0, step)
    right = np.arange(-1.0 + step, 1.0, step)
    top_tail = np.arange(4.0 - 0.0625, 0.0, -step)
    pts = np.vstack([
        np.column_stack([top_head, np.ones_like(top_head)]),
        np.column_stack([np.full_like(left, -4.0), left]),
        np.column_stack([bottom, -np.ones_like(bottom)]),
        np.column_stack([np.full_like(right, 4.0), right]),
        np.column_stack([top_tail, np.ones_like(top_tail)]),
    ])
    normals = np.tile([0.0, 1.0], (pts.shape[0], 1))   # not read here
    chain = SampledSurface(pts, normals, np.full(pts.shape[0], step),
                           source="rectangle chain", spacing=step)
    grid = GridSpec(origin=(-0.5, -0.5), spacing=step, dims=(9, 9))
    mask = assert_same_sampled_flags(chain, grid, tau_multi=2.001)
    assert mask.params["multi_run_rows"] > 0
    assert not mask.flags[4, 4]                 # the origin


def test_grid_inside_the_band_has_no_sampled_flags():
    surface = Ball((0.0, 0.0), 1.0).boundary_sample(0.005)
    grid = GridSpec(origin=(0.965, -0.035), spacing=0.01, dims=(8, 8))
    mask = assert_same_sampled_flags(surface, grid, band_factor=8.0)
    assert mask.excluded.all() and mask.n_flags == 0
    assert mask.params["candidate_rows"] == 0
    assert mask.params["multi_run_rows"] == 0


# ---------------------------------------------------------------------------
# inner-ball bisection
# ---------------------------------------------------------------------------

def assert_same_radii(shape, spacing, r_max, tau_ball=None, measured=None):
    prof = inner_ball_profile(shape, spacing, r_max, tau_ball=tau_ball,
                              measured=measured)
    surface = shape if measured is not None else shape.boundary_sample(
        spacing)
    ref = oracles.inner_ball_radii(shape, surface, r_max, tau_ball=tau_ball,
                                   measured=measured)
    assert np.array_equal(prof.radii, ref)
    return prof


@pytest.mark.parametrize("shape", [
    OffsetBody(make_random_polytope(16, 2), 0.3),
    make_random_polytope(16, 2),
    Ball((0.0, 0.0), 1.0),
    Ellipse((1.0, 0.5)),
    Box((1.0, 0.7)),
], ids=["offset", "polytope", "ball", "ellipse", "box"])
@pytest.mark.parametrize("tau_ball", [None, 1e-4], ids=["default", "tau"])
def test_exact_shape_radii_match_scalar_bisection(shape, tau_ball):
    prof = assert_same_radii(shape, 0.2, 1.2, tau_ball=tau_ball)
    assert prof.min_radius < 1.2      # the bisection ran


@pytest.mark.parametrize("tau_ball", [None, 0.25 / 32],
                         ids=["default", "tau"])
def test_sampled_radii_match_scalar_bisection(tau_ball):
    graph = GraphHypersurface(0.5, 4, 3, window=(0.5, 1.5))
    probe = graph.boundary_sample(1.0 / 32, pad=0.3)
    fine = graph.boundary_sample(1.0 / 512, pad=0.3)
    prof = assert_same_radii(probe, 1.0 / 32, 0.5, tau_ball=tau_ball,
                             measured=fine)
    assert prof.min_radius < 0.5


def test_per_sample_stop_rule_matches_scalar_bisection():
    """With the stop width 1e-3 * tau_ball equal to r_max / 2^20, rounding
    puts hi - lo on either side of it after 20 halvings, so samples stop
    at different steps; a shared stop would move some radii."""
    r_max = 1.2
    width = r_max * 2.0 ** -20
    tau = width / 1e-3
    while 1e-3 * tau != width:
        tau = np.nextafter(tau, np.inf if 1e-3 * tau < width else -np.inf)
    assert_same_radii(make_random_polytope(16, 2), 0.05, r_max, tau_ball=tau)


def test_single_radius_matches_scalar_bisection(unit_square):
    for y in (0.0, 0.3, -0.62, 0.999):
        a, nu = np.array([1.0, y]), np.array([-1.0, 0.0])
        assert inner_ball_radius(unit_square, a, nu, 2.0) == \
            oracles.inner_ball_radius(unit_square, a, nu, 2.0)


# ---------------------------------------------------------------------------
# polytope vertex dedupe
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("facets,seed,dim", [
    (8, 3, 2), (16, 1, 2), (64, 2, 2), (128, 1, 2),
    (12, 3, 3), (32, 1, 3), (32, 7, 3),
])
def test_random_polytope_vertices_match_loop(facets, seed, dim):
    poly = make_random_polytope(facets, seed, dim=dim)
    assert np.array_equal(poly.vertices, oracles.polytope_vertices(poly))


def test_vertices_of_barely_cut_corners_match_loop():
    """A facet that cuts a corner of the square or the cube by 1e-11 makes
    Qhull return intersection points about 1e-11 apart there, which the
    dedupe merges, keeping the first."""
    for dim in (2, 3):
        eye = np.eye(dim)
        normals = np.vstack([eye, -eye, np.full(dim, 1.0 / np.sqrt(dim))])
        offsets = np.r_[np.ones(2 * dim), np.sqrt(dim) - 1e-11]
        poly = ConvexPolytope(normals, offsets)
        assert poly.vertices.shape == (2 ** dim, dim)
        assert np.array_equal(poly.vertices, oracles.polytope_vertices(poly))
