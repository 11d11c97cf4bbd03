"""Batched kernels, marching, multiproj rows, inner-ball bisection and
vertex dedupe against their loop oracles.

The oracles in ``oracles.py`` are the per-node loops the production code
replaced.  Both forms make the same decisions on the same arithmetic, so
the arrays must be equal bit for bit, not merely close.  The one
exception is polytope vertices: the 2D half-plane ring and the 3D plane
triples replaced Qhull with other arithmetic, and are held to stated
contracts against it.
"""

import math
import pkgutil
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sigma_eikonal
from sigma_eikonal import distance, geometry, projection, singular
from sigma_eikonal.distance import GridSpec, ScalarField, _node_distance, \
    distance_field, gradient_field, grid_covering
from sigma_eikonal.eikonal import EikonalProblem, fast_march, problem_from_shape
from sigma_eikonal.geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GraphHypersurface,
    OffsetBody,
    PAIRS_PER_BLOCK,
    SampledSurface,
    _element_blocks,
    _element_feet,
    _triangle_feet,
    _wrap_turn,
    make_random_polytope,
)
from sigma_eikonal.innerball import inner_ball_profile, inner_ball_radius
from sigma_eikonal.experiments import ExperimentConfig, run_lemma_gradient
from sigma_eikonal.projection import _cycle_rows, _resolver, project
from sigma_eikonal.singular import BAND_FACTOR, detect_multiproj

import oracles

SEEDS = (1, 2, 7)
FACETS, EPS, H = 32, 0.3, 0.6


def radial(rng, n, lo, hi):
    """n points in random directions at radii drawn from [lo, hi)."""
    d = rng.normal(size=(n, 3))
    return d * rng.uniform(lo, hi, (n, 1)) / np.linalg.norm(d, axis=1,
                                                            keepdims=True)


def feature_points(poly, spacing):
    """Hull corners, edge midpoints and triangle centroids, the centre
    and boundary samples: the points where several triangles tie."""
    tri = poly.triangles()
    return np.vstack([tri.corners, (tri.a + tri.b) / 2.0,
                      (tri.b + tri.c) / 2.0, (tri.a + tri.c) / 2.0,
                      tri.centroid, np.zeros((1, 3)),
                      poly.boundary_sample(spacing).points])


def query_points(poly, grid, seed):
    """Grid nodes, interior points, far exterior points and the feature
    points."""
    rng = np.random.default_rng(seed)
    verts = poly.vertices
    # a tangent polytope contains the unit ball, so convex combinations of
    # a vertex and a unit-ball point lie inside
    t = rng.uniform(0.0, 1.0, (400, 1))
    inner = (t * verts[rng.integers(0, len(verts), 400)]
             + (1.0 - t) * radial(rng, 400, 0.0, 1.0))
    return np.vstack([grid.points(), inner, radial(rng, 400, 5.0, 50.0),
                      feature_points(poly, 0.25)])


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
    """The pair kernel on every (point, triangle) pair equals the broadcast
    kernel, and both equal the one-point loop."""
    poly, _, _, pts, _ = case
    tri = poly.triangles()
    corners = (tri.a, tri.b, tri.c)
    sub = pts[::7]
    m = tri.a.shape[0]
    rows = np.repeat(np.arange(len(sub)), m)
    dist, feet = _triangle_feet(tri, np.tile(np.arange(m), len(sub)),
                                sub[rows])
    ref = oracles.closest_point_triangles(sub, *corners)
    assert np.array_equal(feet.reshape(ref.shape), ref)
    assert np.array_equal(dist, np.linalg.norm(ref - sub[:, None], axis=2)
                          .ravel())
    for p, f in zip(sub, ref):
        assert np.array_equal(f, oracles.closest_point_triangles_one(
            p, *corners))


def test_projection_distance_matches_loop(case):
    poly, _, _, pts, d_ref = case
    for k in range(0, len(pts), 97):
        assert project(poly, pts[k]).distance == d_ref[k]


BOXES = ((1.0, 1.0, 1.0), (1.0, 2.0, 0.5))


@pytest.mark.parametrize("extents", BOXES, ids=str)
def test_box_polytope_kernel_matches_loop(extents):
    """Box polytopes: few large triangles, two per face, and grid nodes,
    corners, edge midpoints and centroids where their feet tie."""
    poly = Box(extents)
    grid = grid_covering(OffsetBody(poly, EPS), 0.25)
    pts = np.vstack([grid.points(), feature_points(poly, 0.25)])
    assert np.array_equal(poly.boundary_distance(pts),
                          oracles.polytope_boundary_distance_3d(poly, pts))


@pytest.mark.parametrize("case", SEEDS[:1], indirect=True)
def test_polytope_kernel_in_one_point_blocks(case, monkeypatch):
    """With a block of one point the pruning bounds and the row minimum
    run per point, and nothing changes."""
    poly, _, _, pts, d_ref = case
    monkeypatch.setattr(geometry, "PAIRS_PER_BLOCK", 8)
    assert np.array_equal(poly.boundary_distance(pts), d_ref)


def first_argmin_foot(poly, x):
    """The foot on the first nearest triangle, from the broadcast kernel."""
    tri = poly.triangles()
    feet = oracles.closest_point_triangles(x[None], tri.a, tri.b, tri.c)[0]
    dist = np.linalg.norm(feet - x, axis=1)
    k = np.argmin(dist)
    return dist[k], feet[k]


def test_exterior_projection_takes_the_first_nearest_foot(case):
    """Outside the base the nearest point is the first nearest triangle's
    foot, pushed out by epsilon on the offset."""
    poly, body, _, pts, _ = case
    outside = pts[~poly.contains(pts)]
    assert len(outside) > 100
    for x in outside[::11]:
        d, foot = first_argmin_foot(poly, x)
        res = project(poly, x)
        assert res.distance == d
        assert np.array_equal(res.nearest, foot[None])
        u = (x - foot) / np.linalg.norm(x - foot)
        res = project(body, x)
        assert res.distance == abs(d - EPS)
        assert np.array_equal(res.nearest, (foot + EPS * u)[None])


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


def rim_seeds(dims, h):
    """Seeds at the grid's corners and at the middles of its edges and,
    in 3D, of its faces, with values spread over [0, h)."""
    nodes = set()
    for corner in np.ndindex(*(2,) * len(dims)):
        for free in np.ndindex(*(2,) * len(dims)):
            if all(free):
                continue        # the grid's middle, not on the rim
            nodes.add(tuple(d // 2 if f else (d - 1) * c
                            for d, c, f in zip(dims, corner, free)))
    return [(idx, h * (k % 7) / 7.0) for k, idx in enumerate(sorted(nodes))]


@pytest.mark.parametrize("dims", [(9, 14), (14, 8), (8, 11, 13), (12, 8, 9)],
                         ids=str)
def test_rim_seeded_march_on_unequal_axes_matches_loop(dims):
    """Unequal axes and seeds on the rim: a stride or padding mix-up
    reads a neighbour across an edge of the grid."""
    grid = GridSpec((0.0,) * len(dims), 0.1, dims)
    assert_same_march(EikonalProblem(grid, rim_seeds(dims, 0.1)))


def test_two_corner_seeds_march_matches_loop():
    """Fronts from opposite corners meet on a plane of equal values, where
    the (value, flat index) heap order decides which node is accepted."""
    grid = grid_covering(Ball((0.0, 0.0, 0.0), 1.0), 0.25)
    n = grid.dims
    seeds = [((0, 0, 0), 0.0), ((n[0] - 1, n[1] - 1, n[2] - 1), 0.0)]
    assert_same_march(EikonalProblem(grid, seeds))


# ---------------------------------------------------------------------------
# gradient-jump flags
# ---------------------------------------------------------------------------

THETAS = (10.0, 30.0, 60.0)


def assert_same_gradjump(fld):
    """Pairwise cosines against the einsum matrix, as floats and as flags
    at each angle; returns the flag counts, so a case that flags nothing
    shows."""
    h = fld.grid.spacing
    ref = oracles.one_sided_cosines(fld.values, h)
    for out, want in zip(singular._one_sided_cosines(fld.values, h), ref):
        assert np.array_equal(out, want, equal_nan=True)
    counts = []
    for theta in THETAS:
        mask = singular.detect_gradjump(fld, theta)
        flags, excluded = oracles.detect_gradjump(fld, theta)
        assert np.array_equal(mask.flags, flags), theta
        assert np.array_equal(mask.excluded, excluded), theta
        counts.append(mask.n_flags)
    return counts


@pytest.mark.parametrize("h", [1.0 / 64, 1.0 / 96], ids=["h64", "h96"])
def test_disk_march_gradjump_matches_einsum(h):
    disk = Ball((0.0, 0.0), 1.0)
    sol = fast_march(problem_from_shape(disk, grid_covering(disk, h)))
    assert assert_same_gradjump(sol)[0] > 0


@pytest.mark.parametrize("label,shape", [
    ("square", Box((1.0, 1.0))),
    ("offset_square", OffsetBody(Box((1.0, 1.0)), 0.5)),
    ("poly16", make_random_polytope(16, 1)),
], ids=["square", "offset_square", "poly16"])
def test_2d_field_gradjump_matches_einsum(label, shape):
    fld = distance_field(shape, grid_covering(shape, 1.0 / 32))
    assert assert_same_gradjump(fld)[0] > 0


@pytest.mark.parametrize("h", [H, 0.25])
def test_3d_gradjump_matches_einsum(case, h):
    poly, body, _, _, _ = case
    grid = grid_covering(body, h)
    counts = 0
    for shape in (poly, body):
        counts += assert_same_gradjump(distance_field(shape, grid))[0]
        sol = fast_march(problem_from_shape(shape, grid))
        counts += assert_same_gradjump(sol)[0]
    assert counts > 0


# ---------------------------------------------------------------------------
# 2D multiproj row resolution
# ---------------------------------------------------------------------------

MASK_SEEDS = {8: 3, 16: 1, 32: 2, 64: 1, 128: 1}
MASK_STEPS = (1.0 / 20, 1.0 / 32)


def oracle_cycle(shape):
    """The scalar element cycle of a 2D polytope or offset."""
    if isinstance(shape, OffsetBody):
        return oracles.offset_cycle(shape)
    return oracles.polytope_cycle(shape)


def oracle_flags(shape, grid, tau_multi):
    """detect_multiproj's flags with the rows resolved one by one."""
    h = grid.spacing
    pts = grid.points()
    dK = shape.boundary_distance(pts)
    excluded = dK <= BAND_FACTOR * h
    extra = {"shape": shape} if isinstance(shape, OffsetBody) else {}
    flags = oracles.detect_cycle(oracle_cycle(shape), shape.diameter(), pts,
                                 dK, excluded, tau_multi, **extra)
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
    body = OffsetBody(box, 0.5)
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


def test_batched_feet_match_scalar_query(monkeypatch):
    """Each entry of _element_blocks, with the foot _element_feet
    builds from its clamp code, is the element's scalar query (distance,
    foot and clamp code), one element for all points and a random element
    per point, with the base vertices (the arc centres) among the points.
    A block is valid only until the next is drawn, so each is copied as
    it arrives, transposed from the element-major (E, n) to (n, E); the
    budget gives several blocks and a shorter last one."""
    poly = make_random_polytope(16, 1)
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.uniform(-3.0, 3.0, (500, 2)), poly.vertices])
    at = np.arange(len(pts))
    monkeypatch.setattr(geometry, "PAIRS_PER_BLOCK", 1600)
    for shape in (poly, OffsetBody(poly, 0.3)):
        cycle = oracle_cycle(shape)
        blocks = [(rows, dist.T.copy(), clamp.T.copy()) for rows, dist,
                  clamp, _ in _element_blocks(shape, pts)]
        sizes = [rows.stop - rows.start for rows, _, _ in blocks]
        assert len(sizes) > 2 and sizes[-1] < sizes[0]
        dist = np.vstack([b[1] for b in blocks])
        clamp = np.vstack([b[2] for b in blocks])
        picks = [np.full(len(pts), k) for k in range(len(cycle))]
        for elem in picks + [rng.integers(0, len(cycle), len(pts))]:
            code = clamp[at, elem]
            got = (dist[at, elem], _element_feet(shape, pts, elem, code),
                   code)
            ref = zip(*[cycle[k].query(p) for k, p in zip(elem, pts)])
            for g, want in zip(got, ref):
                assert np.array_equal(g, want)


def test_threads_own_their_block_scratch(monkeypatch):
    """Each _element_blocks call owns its scratch planes, so two
    threads computing an offset's boundary distance at once, in blocks of
    a small budget, each get the serial result bit for bit."""
    shape = OffsetBody(make_random_polytope(16, 1), 0.3)
    rng = np.random.default_rng(3)
    pts = [rng.uniform(-3.0, 3.0, (2000 + 37 * k, 2)) for k in range(2)]
    monkeypatch.setattr(geometry, "PAIRS_PER_BLOCK", 32 * 64)
    want = [shape.boundary_distance(p) for p in pts]
    with distance.ThreadPoolExecutor(2) as pool:
        for _ in range(20):
            got = list(pool.map(shape.boundary_distance, pts))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


def projection_shapes_2d():
    """The MASK_SEEDS polytopes with their 0.1 offsets, the square and the
    offset square."""
    square = Box((1.0, 1.0))
    out = [("square", square), ("square_e0.5", OffsetBody(square, 0.5))]
    for facets, seed in sorted(MASK_SEEDS.items()):
        poly = make_random_polytope(facets, seed)
        out += [(f"poly{facets}", poly),
                (f"poly{facets}_e0.1", OffsetBody(poly, 0.1))]
    return out


@pytest.mark.parametrize("label,shape", projection_shapes_2d(),
                         ids=[lbl for lbl, _ in projection_shapes_2d()])
def test_2d_projection_matches_scalar_cycle(label, shape):
    """project equals oracles.cycle_project bit for bit at every 2nd
    flagged and every 20th node of the h = 1/20 grid, at random points and
    at the base vertices, with the grid tie window and the default one.  At a base
    vertex of an offset the nearest set is the vertex arc's two end
    points, so the point is a tie exactly when the arc's chord exceeds the
    window."""
    h = MASK_STEPS[0]
    grid = grid_covering(shape, h)
    mask = detect_multiproj(shape, grid)
    nodes = grid.points()
    pick = np.union1d(np.flatnonzero(mask.flags)[::2],
                      np.arange(0, grid.n_nodes, 20))
    rng = np.random.default_rng(len(label))
    lo, hi = shape.bbox()
    base = shape.base if isinstance(shape, OffsetBody) else shape
    pts = np.vstack([nodes[pick],
                     rng.uniform(np.asarray(lo) - 0.5, np.asarray(hi) + 0.5,
                                 (100, 2)),
                     base.vertices])
    cycle, diam = oracle_cycle(shape), shape.diameter()
    for tau in (h, 1e-9 * diam):
        for x in pts:
            res = project(shape, x, tau_multi=tau)
            d_ref, feet = oracles.cycle_project(cycle, x, tau, diam)
            assert res.distance == d_ref
            assert np.array_equal(res.nearest, feet)
            assert res.spread == oracles.max_pairwise(feet)
    if isinstance(shape, OffsetBody):
        cyc = shape._cycle
        for center, sweep in zip(cyc.center, cyc.sweep):
            chord = 2.0 * shape.epsilon * np.sin(0.5 * sweep)
            for tau in (h, 1e-9 * diam):
                res = project(shape, center, tau_multi=tau)
                assert res.nearest.shape[0] == 2
                assert res.is_singleton == (chord <= tau)


@pytest.mark.parametrize("label,shape", projection_shapes_2d(),
                         ids=[lbl for lbl, _ in projection_shapes_2d()])
def test_2d_flags_are_exactly_the_non_singleton_projections(label, shape):
    """At the grid's tie window, _cycle_rows (the rows project answers
    from) over every node off the band gives the node memo's distance,
    and a spread above the window exactly at its flags, bit for bit."""
    grid = grid_covering(shape, MASK_STEPS[0])
    mask = detect_multiproj(shape, grid)
    tau = mask.params["tau_multi"]
    active = np.flatnonzero(~mask.excluded.reshape(-1))
    d_opt, _, _, spread, _ = _cycle_rows(shape, grid.points()[active], tau,
                                         True)
    assert np.array_equal(d_opt, _node_distance(shape, grid)[active])
    assert np.array_equal(spread > tau, mask.flags.reshape(-1)[active])


def resolver_shapes():
    """The square, the offset square and a 16-facet polytope's 0.3 offset."""
    square = Box((1.0, 1.0))
    return [("square", square), ("square_e0.5", OffsetBody(square, 0.5)),
            ("poly16_e0.3", OffsetBody(make_random_polytope(16, 1), 0.3))]


@pytest.mark.parametrize("label,shape", resolver_shapes(),
                         ids=[lbl for lbl, _ in resolver_shapes()])
def test_cycle_rows_match_scalar_cycle_on_every_flag(label, shape,
                                                    monkeypatch):
    """_cycle_rows, run over every flagged node of the h = 1/32 grid at
    once, gives each node the distance, feet and spread of
    oracles.cycle_project bit for bit, in one block of pairs or in many,
    and project answers each node as that row."""
    grid = grid_covering(shape, MASK_STEPS[1])
    mask = detect_multiproj(shape, grid)
    tau = mask.params["tau_multi"]
    pts = grid.points()[mask.flags.reshape(-1)]
    assert pts.shape[0] > 100
    d_opt, count, feet, spread, _ = _cycle_rows(shape, pts, tau, True)
    monkeypatch.setattr(geometry, "PAIRS_PER_BLOCK", 7 * shape._cycle.size)
    for got, want in zip(_cycle_rows(shape, pts, tau, True),
                         (d_opt, count, feet, spread)):
        assert np.array_equal(got, want)
    monkeypatch.undo()
    rows = np.split(feet, np.cumsum(count)[:-1])
    cycle, diam = oracle_cycle(shape), shape.diameter()
    for i, x in enumerate(pts):
        d_ref, feet_ref = oracles.cycle_project(cycle, x, tau, diam)
        assert d_opt[i] == d_ref
        assert np.array_equal(rows[i], feet_ref)
        assert spread[i] == oracles.max_pairwise(feet_ref)
        res = project(shape, x, tau_multi=tau)
        assert res.distance == d_opt[i] and res.spread == spread[i]
        assert np.array_equal(res.nearest, rows[i])


def first_feet(shape, pts):
    """The first foot of each row of the shape family's rows function,
    resolved in full at tie window 0: the feet of the gradient lemma."""
    rows, tau = _resolver(shape, pts, 0.0)
    count, feet = rows(shape, pts, tau, True)[1:3]
    return feet[np.cumsum(count) - count]


def oracle_nearest_feet(shape, pts):
    if isinstance(shape, Ball):
        return oracles.ball_nearest_feet(shape, pts)
    return oracles.cycle_nearest_feet(shape, pts)


def lemma_shapes():
    """The disk, the square and the offset square of the gradient lemma."""
    square = Box((1.0, 1.0))
    return [("disk", Ball((0.0, 0.0), 1.0)), ("square", square),
            ("offset_square", OffsetBody(square, 0.5))]


def lemma_nodes(shape, h):
    """The grid, mask and eligible node mask (flat) of the gradient lemma:
    the nodes 10h from the boundary and from every flag."""
    grid = grid_covering(shape, h)
    mask = detect_multiproj(shape, grid)
    eligible = ((_node_distance(shape, grid).reshape(grid.dims) >= 10.0 * h)
                & (mask.distance_to_flags() >= 10.0 * h)).reshape(-1)
    return grid, mask, eligible


@pytest.mark.parametrize("h", (1.0 / 32, 1.0 / 64, 1.0 / 128),
                         ids=("1/32", "1/64", "1/128"))
@pytest.mark.parametrize("label,shape", lemma_shapes(),
                         ids=[lbl for lbl, _ in lemma_shapes()])
def test_lemma_feet_are_the_first_feet_of_the_rows(label, shape, h):
    """On the nodes the gradient lemma reads, 10h from the boundary and
    from every flag, the first foot of each row at tie window 0 is the
    one-foot oracle's bit for bit: the first nearest element's foot, or
    the ball's radial foot."""
    grid, _, eligible = lemma_nodes(shape, h)
    pts = grid.points()[eligible]
    assert pts.shape[0] > 100
    assert np.array_equal(first_feet(shape, pts),
                          oracle_nearest_feet(shape, pts))


def test_lemma_gradient_deviations_are_those_of_the_oracle_feet():
    """run_lemma_gradient's largest deviation of each shape at h = 1/32 is
    the one the projection formula gives with the one-foot oracle's feet
    on the same eligible nodes, bit for bit."""
    h = 1.0 / 32
    report = run_lemma_gradient(ExperimentConfig(grid="1/32"))
    for label, shape in lemma_shapes():
        grid, mask, eligible = lemma_nodes(shape, h)
        pts = grid.points()[eligible]
        dK = _node_distance(shape, grid).reshape(grid.dims)
        formula = (pts - oracle_nearest_feet(shape, pts)) \
            / dK.reshape(-1)[eligible][:, None]
        fd = gradient_field(ScalarField(grid, dK, kind="distance"))
        dev = np.linalg.norm(fd.reshape(-1, 2)[eligible] - formula, axis=1)
        assert report[f"{label}_max_dev"] == float(dev.max())


@pytest.mark.parametrize("label,shape", projection_shapes_2d(),
                         ids=[lbl for lbl, _ in projection_shapes_2d()])
def test_first_feet_of_the_rows_are_the_first_nearest_elements(label,
                                                                shape):
    """Everywhere, ties and junctions included, the first foot of a row at
    tie window 0 is the foot on the first nearest element: the junction
    rule never drops that element, since no neighbour lies below the
    minimum, no earlier element attains it, and the dedupe keeps a row's
    first foot.  On grid nodes, random points and the base vertices."""
    base = shape.base if isinstance(shape, OffsetBody) else shape
    lo, hi = shape.bbox()
    rng = np.random.default_rng(len(label))
    pts = np.vstack([grid_covering(shape, MASK_STEPS[1]).points(),
                     rng.uniform(np.asarray(lo) - 0.5, np.asarray(hi) + 0.5,
                                 (200, 2)),
                     base.vertices])
    assert np.array_equal(first_feet(shape, pts),
                          oracles.cycle_nearest_feet(shape, pts))


# ---------------------------------------------------------------------------
# 2D boundary distance against the one-arc-at-a-time loop
# ---------------------------------------------------------------------------

def shapes_2d():
    """The MASK_SEEDS polytopes with their 0.1 and 0.3 offsets, and the
    square with its 0.5 offset."""
    square = Box((1.0, 1.0))
    out = [("square", square), ("square_e0.5", OffsetBody(square, 0.5))]
    for facets, seed in sorted(MASK_SEEDS.items()):
        poly = make_random_polytope(facets, seed)
        out.append((f"poly{facets}", poly))
        out += [(f"poly{facets}_e{eps}", OffsetBody(poly, eps))
                for eps in (0.1, 0.3)]
    return out


@pytest.mark.parametrize("label,shape", shapes_2d(),
                         ids=[lbl for lbl, _ in shapes_2d()])
def test_2d_boundary_distance_matches_arc_loop(label, shape):
    base = shape.base if isinstance(shape, OffsetBody) else shape
    rng = np.random.default_rng(len(label))
    lo, hi = shape.bbox()
    pts = [grid_covering(shape, h).points() for h in MASK_STEPS]
    pts.append(rng.uniform(np.asarray(lo) - 1.0, np.asarray(hi) + 1.0,
                           (2000, 2)))
    pts.append(base.vertices)
    if isinstance(shape, OffsetBody):
        pts.append(shape._cycle.center)
    pts = np.vstack(pts)
    assert np.array_equal(shape.boundary_distance(pts),
                          oracles.boundary_distance_2d(shape, pts))


def test_2d_boundary_distance_across_kernel_blocks():
    body = OffsetBody(make_random_polytope(64, 1), 0.2)
    grid = grid_covering(body, 1.0 / 64)
    n_el = 2 * body.base.vertices.shape[0]
    assert grid.n_nodes > 10 * (PAIRS_PER_BLOCK // n_el)
    pts = grid.points()
    ref = oracles.boundary_distance_2d(body, pts)
    assert np.array_equal(body.boundary_distance(pts), ref)
    assert np.array_equal(distance_field(body, grid).values.ravel(), ref)
    detect_multiproj(body, grid)
    assert np.array_equal(_node_distance(body, grid), ref)


def kernel_edge_points(shape):
    """Points where the 2D kernels switch branch: every vertex, every
    segment end point (t exactly 0 and 1), every arc centre, and points on
    the rays from each arc centre through e0 and e1 at radii eps/2, eps and
    2 eps."""
    cyc = shape._cycle
    base = shape.base if isinstance(shape, OffsetBody) else shape
    pts = [base.vertices, cyc.seg_a, cyc.seg_b, cyc.center]
    for end in (cyc.e0, cyc.e1):
        pts += [cyc.center + s * (end - cyc.center) for s in (0.5, 1.0, 2.0)]
    return np.vstack(pts)


@pytest.mark.parametrize("label,shape", projection_shapes_2d(),
                         ids=[lbl for lbl, _ in projection_shapes_2d()])
def test_element_distance_blocks_match_einsum_kernels(label, shape):
    """The coordinate-plane kernels give the distance and clamp matrices of
    the (n, E, 2) einsum forms bit for bit, transposed from their
    element-major (E, n) blocks, on the h = 1/20 grid and at the points
    where a kernel switches branch."""
    pts = np.vstack([grid_covering(shape, MASK_STEPS[0]).points(),
                     kernel_edge_points(shape)])
    want_dist, want_clamp = oracles.element_distance_matrix(shape, pts)
    n_rows = 0
    for rows, dist, clamp, _ in _element_blocks(shape, pts):
        assert clamp.dtype == want_clamp.dtype
        assert np.array_equal(dist.T, want_dist[rows])
        assert np.array_equal(clamp.T, want_clamp[rows])
        n_rows += dist.T.shape[0]
    assert n_rows == pts.shape[0]
    edge = oracles.element_distance_matrix(shape, kernel_edge_points(shape))[1]
    assert (edge == -1).any() and (edge == 1).any()


def test_sector_angle_wrap_is_np_remainder():
    """_wrap_turn's two masked steps give np.remainder(x, 2 pi) on
    [-2 pi, 2 pi], up to the sign of a zero, and the same <= sweep masks:
    at +-2 pi, +-0, the neighbours of +-2 pi, tiny negatives whose x + 2 pi
    rounds to 2 pi, and arctan2 - a0 draws with a0 from math.atan2."""
    turn = 2.0 * np.pi
    rng = np.random.default_rng(5)
    edges = [turn, -turn, 0.0, -0.0, np.nextafter(turn, 0.0),
             np.nextafter(-turn, 0.0), np.pi, -np.pi, 5e-324, -5e-324,
             -1e-300, -1e-17, -np.spacing(turn) / 4, -np.spacing(turn) / 2,
             -np.spacing(turn)]
    y, x = rng.normal(size=(2, 100_000))
    y[:1000] = rng.choice([0.0, -0.0], 1000)
    a0 = np.array([math.atan2(v, u) for v, u in rng.normal(size=(200, 2))]
                  + [math.pi, -math.pi, 0.0, -0.0, math.atan2(-0.0, -1.0)])
    local = np.concatenate([edges, (np.arctan2(y, x)[:, None]
                                    - a0[rng.integers(0, a0.size, 16)]
                                    ).ravel(),
                            np.arctan2(0.0, -1.0) - a0,
                            np.arctan2(-0.0, -1.0) - a0])
    assert (np.abs(local) <= turn).all()
    want = np.remainder(local, turn)
    got = _wrap_turn(local.copy(), np.empty(local.shape, dtype=bool))
    assert np.array_equal(got, want)
    assert (got == turn).any() and (got == 0.0).any()
    sweeps = np.concatenate([[0.0, 5e-324, np.nextafter(turn, 0.0), turn],
                             rng.uniform(0.0, turn, 8)])
    for sweep in sweeps:
        assert np.array_equal(got <= sweep, want <= sweep)


# ---------------------------------------------------------------------------
# convex polytopes and offsets against the facet-slack closed form
# ---------------------------------------------------------------------------

def slack_mask(shape, h):
    """detect_multiproj's mask, and the closed form's flags off its band."""
    grid = grid_covering(shape, h)
    mask = detect_multiproj(shape, grid)
    flags = oracles.slack_flags(shape, grid.points(), h).reshape(grid.dims)
    return mask, flags & ~mask.excluded


def test_3d_masks_match_slack_closed_form(case):
    poly, body, grid, _, _ = case
    for shape in (poly, body):
        mask = detect_multiproj(shape, grid)
        flags = oracles.slack_flags(shape, grid.points(), H)
        assert np.array_equal(mask.flags,
                              flags.reshape(grid.dims) & ~mask.excluded)


def test_3d_masks_on_a_finer_grid_match_slack_closed_form():
    poly = make_random_polytope(12, 1, dim=3)
    for shape in (poly, OffsetBody(poly, 0.3)):
        mask, flags = slack_mask(shape, 0.25)
        assert mask.n_flags > 0
        assert np.array_equal(mask.flags, flags)


def test_one_block_budget_sizes_every_loop(monkeypatch):
    """Every block loop takes its rows from geometry._row_blocks, sized by
    the one PAIRS_PER_BLOCK.  A budget of 40 pairs runs the 3D facet-slack
    detector three rows at a time (the offset's node distances come from
    its memo) and the field evaluation as 40-node blocks on the thread
    pool, and neither changes a bit."""
    body = OffsetBody(make_random_polytope(12, 1, dim=3), 0.3)
    grid = grid_covering(body, 0.3)

    def outputs():
        flat = OffsetBody(make_random_polytope(16, 2), 0.3)   # fresh: no memo
        return (detect_multiproj(body, grid).flags,
                distance_field(flat, grid_covering(flat, 1.0 / 16)).values)

    flags, field = outputs()
    assert flags.any() and field.size > 40
    submitted = []

    class Pool(distance.ThreadPoolExecutor):
        def submit(self, *args):
            submitted.append(args)
            return super().submit(*args)

    monkeypatch.setattr(distance, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(distance, "thread_count", lambda: 2)
    monkeypatch.setattr(geometry, "PAIRS_PER_BLOCK", 40)
    small_flags, small_field = outputs()
    assert len(submitted) == -(-field.size // 40)
    assert np.array_equal(small_flags, flags)
    assert np.array_equal(small_field, field)

    for info in pkgutil.iter_modules(sigma_eikonal.__path__):
        module = import_module(f"sigma_eikonal.{info.name}")
        budgets = {name for name in vars(module)
                   if name.endswith(("_PER_BLOCK", "_PER_CHUNK"))}
        assert budgets == ({"PAIRS_PER_BLOCK"} if module is geometry
                           else set()), info.name


@pytest.mark.parametrize("facets", sorted(MASK_SEEDS))
def test_2d_masks_match_slack_closed_form(facets):
    poly = make_random_polytope(facets, MASK_SEEDS[facets])
    for shape in (poly, OffsetBody(poly, 0.1), OffsetBody(poly, 0.3)):
        for h in MASK_STEPS:
            mask, flags = slack_mask(shape, h)
            assert np.array_equal(mask.flags, flags)


def test_offset_square_differs_from_slack_closed_form_only_at_exact_ties():
    """On the grid-aligned offset square the element cycle and the closed
    form settle window-edge ties differently: every node where they differ
    has two slacks exactly one tie window apart."""
    body = OffsetBody(Box((1.0, 1.0)), 0.5)
    for h in MASK_STEPS:
        mask, flags = slack_mask(body, h)
        differ = (mask.flags != flags).reshape(-1)
        for x in mask.grid.points()[differ]:
            s = body.base.offsets - body.base.normals @ x
            assert np.abs(s[:, None] - s[None, :] - h).min() <= 1e-12


# ---------------------------------------------------------------------------
# sampled-surface multiproj rows
# ---------------------------------------------------------------------------

def assert_same_sampled_flags(shape, grid, tau_multi=None):
    """detect_multiproj's mask equals the row loop's on the same sampling."""
    mask = detect_multiproj(shape, grid, tau_multi=tau_multi)
    surface = shape if isinstance(shape, SampledSurface) \
        else shape.boundary_sample(0.5 * grid.spacing)
    pts = grid.points()
    dK = surface.boundary_distance(pts)
    excluded = dK <= singular.BAND_FACTOR * grid.spacing
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
    ellipse = Ellipse((1.0, 0.5))
    assert_same_sampled_flags(ellipse.boundary_sample(0.5 * h),
                              grid_covering(ellipse, h))


def test_3d_sampled_masks_match_row_loop():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    mask = assert_same_sampled_flags(ball.boundary_sample(0.25),
                                     grid_covering(ball, 0.4))
    assert mask.n_flags > 0


def test_sampled_masks_match_row_loop_across_chunks(monkeypatch):
    # fetches of about 2000 candidates in projection._sampled_rows
    monkeypatch.setattr(geometry, "PAIRS_PER_BLOCK", 2000)
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
    chain = SampledSurface(pts, normals, spacing=step)
    grid = GridSpec(origin=(-0.5, -0.5), spacing=step, dims=(9, 9))
    mask = assert_same_sampled_flags(chain, grid, tau_multi=2.001)
    assert mask.params["multi_run_rows"] > 0
    assert not mask.flags[4, 4]                 # the origin


def test_grid_inside_the_band_has_no_sampled_flags(monkeypatch):
    surface = Ball((0.0, 0.0), 1.0).boundary_sample(0.005)
    grid = GridSpec(origin=(0.965, -0.035), spacing=0.01, dims=(8, 8))
    monkeypatch.setattr(singular, "BAND_FACTOR", 8.0)
    mask = assert_same_sampled_flags(surface, grid)
    assert mask.params["band_factor"] == 8.0
    assert mask.excluded.all() and mask.n_flags == 0
    assert mask.params["candidate_rows"] == 0
    assert mask.params["multi_run_rows"] == 0


class FetchSpy:
    """A sampling's kd-tree that logs the (rows, candidates) of each
    query_ball_point fetch."""

    def __init__(self, tree):
        self.tree, self.fetches = tree, []

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def query_ball_point(self, x, r, **kwargs):
        lists = self.tree.query_ball_point(x, r, **kwargs)
        self.fetches.append((len(lists), sum(map(len, lists))))
        return lists


def sampled_outputs(surface, grid):
    """The mask of a sampling and its full rows over the mask's active
    nodes (the rows project answers one at a time)."""
    mask = detect_multiproj(surface, grid)
    pts = grid.points()[~mask.excluded.ravel()]
    return mask, projection._sampled_rows(surface, pts, grid.spacing, True)


def block_case(shape, h, sample):
    return shape.boundary_sample(sample), grid_covering(shape, h)


BLOCK_CASES = {
    # open: the rough graph; closed: an offset and the disk, whose centre
    # is one run through the chain's end; and a 3D sampling
    "graph": lambda: (rough_graph(5).boundary_sample(1 / 32, pad=0.3),
                      grid_covering(rough_graph(5), 1 / 16, margin=0.35)),
    "offset": lambda: block_case(OffsetBody(make_random_polytope(16, 1), 0.3),
                                 1 / 16, 1 / 32),
    "disk": lambda: block_case(Ball((0.0, 0.0), 1.0), 1 / 16, 1 / 32),
    "ball3d": lambda: block_case(Ball((0.0, 0.0, 0.0), 1.0), 0.5, 0.3),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_sampled_rows_do_not_depend_on_the_fetch_blocks(case, monkeypatch):
    """A budget of 40 candidates fetches the rows a few at a time.  The
    mask, its params (but the fetch count) and the full rows' distances,
    counts, feet and spreads are the defaults' bit for bit.  Each fetch
    after the first holds the rows that the mean candidate count so far
    puts at the budget, and at most twice the rows of the one before."""
    surface, grid = BLOCK_CASES[case]()
    mask, full = sampled_outputs(surface, grid)
    assert mask.n_flags > 0 and mask.params["fetch_blocks"] > 1
    monkeypatch.setattr(geometry, "PAIRS_PER_BLOCK", 40)
    spy = FetchSpy(surface.tree())
    surface._tree = spy
    small, small_full = sampled_outputs(surface, grid)
    assert np.array_equal(small.flags, mask.flags)
    assert np.array_equal(small.excluded, mask.excluded)
    blocks = small.params.pop("fetch_blocks")
    assert blocks > 10 * mask.params.pop("fetch_blocks")
    assert small.params == mask.params
    for got, want in zip(small_full[:4], full[:4]):
        assert np.array_equal(got, want)
    assert small_full[4]["candidate_pairs"] == full[4]["candidate_pairs"]

    detect = np.array(spy.fetches[:blocks])
    assert detect[:, 1].sum() == small.params["candidate_pairs"]
    assert detect[0, 0] == 1
    fetched = np.cumsum(detect, axis=0)[:-1]
    budget = np.minimum(2 * detect[:-1, 0],
                        np.maximum(1, 40 * fetched[:, 0] // fetched[:, 1]))
    assert np.array_equal(detect[1:-1, 0], budget[:-1])
    assert detect[-1, 0] <= budget[-1]
    # a single row can hold far more candidates than the mean: near the
    # budget on average
    assert 40 / 4 <= detect[:, 1].mean() <= 2 * 40


@settings(max_examples=200, deadline=None)
@given(n_nodes=st.integers(1, 40), data=st.data())
def test_component_labels_match_csgraph(n_nodes, data):
    """On random edge lists with self-loops, duplicate edges and isolated
    nodes, projection._components labels each node with the smallest node
    of its csgraph component: the same partition, numbered in csgraph's
    order."""
    node = st.integers(0, n_nodes - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=3 * n_nodes))
    heads, tails = (np.array([e[k] for e in edges], dtype=np.intp)
                    for k in (0, 1))
    ref = oracles.connected_components(n_nodes, heads, tails)
    smallest = np.full(ref.max() + 1, n_nodes)
    np.minimum.at(smallest, ref, np.arange(n_nodes))
    label = projection._components(n_nodes, heads, tails)
    assert np.array_equal(label, smallest[ref])
    assert np.array_equal(np.unique(label, return_inverse=True)[1], ref)


# ---------------------------------------------------------------------------
# sampled projection: one row of the detector's resolver
# ---------------------------------------------------------------------------

# shape, h, and the active nodes that agree with the old projection as
# they are, up to an exact distance tie inside a cluster, and at a
# continuum tie (measured)
SAMPLED_PROJECTION_CASES = {
    "ellipse": (lambda: Ellipse((1.0, 0.5)), 1.0 / 20,
                {"same": 882, "tie": 0, "continuum": 0}),
    "offset16": (lambda: OffsetBody(make_random_polytope(16, 1), 0.3),
                 1.0 / 20, {"same": 3154, "tie": 0, "continuum": 3}),
    "disk": (lambda: Ball((0.0, 0.0), 1.0), 1.0 / 16,
             {"same": 1095, "tie": 9, "continuum": 21}),
}


def sorted_rows(points):
    return points[np.lexsort(points.T[::-1])]


def same_reps_up_to_ties(x, reps, ref, link):
    """The same representatives as rows, except that one may be replaced
    by another candidate of its cluster (within the linking distance) at
    exactly the same distance from x: the old loop broke such ties in
    kd-tree order, the detector's rule in chain order."""
    if np.array_equal(sorted_rows(reps), sorted_rows(ref)):
        return "same"
    assert reps.shape == ref.shape
    d = np.linalg.norm(reps - x, axis=1)
    d_ref = np.linalg.norm(ref - x, axis=1)
    for p, dp in zip(reps, d):
        gap = np.linalg.norm(ref - p, axis=1)
        assert np.any((gap <= link) & (d_ref == dp))
    return "tie"


@pytest.mark.parametrize("case", sorted(SAMPLED_PROJECTION_CASES))
def test_sampled_projection_is_one_row_of_the_detector(case):
    """On every active node of a sampling at h/2: project is a singleton
    exactly where the mask has no flag, its distance equals the old
    union-find projection's bit for bit, and so do its nearest set (as a
    set of rows, up to exact distance ties inside a cluster) and spread,
    except at continuum ties, where both call the point a tie and project
    holds the detector's one representative with the span as spread."""
    make, h, expected = SAMPLED_PROJECTION_CASES[case]
    shape = make()
    surface = shape.boundary_sample(0.5 * h)
    grid = grid_covering(shape, h)
    mask = detect_multiproj(surface, grid)
    active = np.flatnonzero(~mask.excluded.ravel())
    flags = mask.flags.ravel()
    nodes = grid.points()
    half_diameter = 0.5 * surface.diameter()
    seen = {"same": 0, "tie": 0, "continuum": 0}
    for i in active:
        x = nodes[i]
        res = project(surface, x, tau_multi=h)
        assert res.is_singleton == (not flags[i])
        d_ref, near_ref, spread_ref = oracles.project_sampled(surface, x, h)
        assert res.distance == d_ref
        if res.nearest.shape[0] == 1 and res.spread > 0.0:
            seen["continuum"] += 1
            assert res.spread > half_diameter and spread_ref > half_diameter
            continue
        how = same_reps_up_to_ties(x, res.nearest, near_ref,
                                   3.0 * surface.spacing)
        seen[how] += 1
        if how == "same":
            assert res.spread == spread_ref
    assert seen == expected


def test_sampled_circle_centre_is_a_continuum_tie():
    """The centre of a 1,257-sample circle: every sample is a candidate,
    in one run through the chain's end."""
    surface = Ball((0.0, 0.0), 1.0).boundary_sample(0.005)
    assert surface.points.shape[0] == 1257
    res = project(surface, np.zeros(2))
    assert not res.is_singleton
    assert res.spread >= 2.0
    assert res.nearest.shape[0] == 1


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
# polytope vertices against Qhull's
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("facets,seed,dim", [
    (8, 3, 2), (16, 1, 2), (64, 2, 2), (128, 1, 2),
    (12, 3, 3), (32, 1, 3), (32, 7, 3),
])
def test_random_polytope_vertices_match_loop(facets, seed, dim):
    """Vertices come from the planes, in other arithmetic than Qhull's:
    2D ones from the half-plane ring, which meet its contract against
    Qhull's (oracles.assert_ring_matches_qhull), starting at the same
    vertex; 3D ones from the plane triples, which meet theirs
    (oracles.assert_vertices_match_qhull)."""
    poly = make_random_polytope(facets, seed, dim=dim)
    if dim == 2:
        assert oracles.assert_ring_matches_qhull(poly) == 0
    else:
        oracles.assert_vertices_match_qhull(poly)


def test_vertices_of_barely_cut_corners_match_loop():
    """A facet that cuts a corner of the square or the cube by 1e-11 makes
    Qhull return intersection points about 1e-11 apart there, which the
    dedupe merges, keeping the first.  The 2D ring drops the cutting
    line, whose edge is as short: four vertices, the corner within 1e-9
    of (1, 1).  In 3D the meets of the cut corner share one set of tight
    planes and merge into the first triple's, the corner (1, 1, 1) of the
    cube's own planes: eight vertices, within 1e-9 of Qhull's."""
    for dim in (2, 3):
        eye = np.eye(dim)
        normals = np.vstack([eye, -eye, np.full(dim, 1.0 / np.sqrt(dim))])
        offsets = np.r_[np.ones(2 * dim), np.sqrt(dim) - 1e-11]
        poly = ConvexPolytope(normals, offsets)
        assert poly.vertices.shape == (2 ** dim, dim)
        if dim == 2:
            assert np.linalg.norm(poly.vertices - 1.0, axis=1).min() <= 1e-9
        else:
            oracles.assert_vertices_match_qhull(poly, tol=1e-9)
