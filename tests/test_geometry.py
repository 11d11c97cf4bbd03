"""Shape constructors, membership, sampling, and serialization."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigma_eikonal.geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GeometryError,
    GraphHypersurface,
    OPEN_GAP_TOL,
    OffsetBody,
    SampledSurface,
    _Cycle,
    _Triangles,
    load_shape,
    make_random_polytope,
    save_shape,
    shape_from_spec,
)
from sigma_eikonal.distance import (
    GridError,
    GridSpec,
    distance_field,
    grid_covering,
)
from sigma_eikonal.innerball import (
    InnerBallError,
    inner_ball_profile,
    inner_ball_radius,
    normal_map_injectivity,
    uniform_condition_report,
)
from sigma_eikonal.eikonal import residuals
from sigma_eikonal.projection import project
from sigma_eikonal.singular import (
    DetectionError,
    coverage_density,
    detect_gradjump,
    detect_multiproj,
    inclusion_violations,
    mask_agreement,
)

import oracles
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


def membership_cases():
    """One shape of each class that has contains, 2D and 3D where both
    exist."""
    poly2 = make_random_polytope(16, 1)
    poly3 = make_random_polytope(16, 1, dim=3)
    return [("polytope_2d", poly2), ("polytope_3d", poly3),
            ("offset_2d", OffsetBody(poly2, 0.3)),
            ("offset_3d", OffsetBody(poly3, 0.3)),
            ("ball_2d", Ball((0.5, -0.25), 1.5)),
            ("ball_3d", Ball((0.0, 0.0, 0.5), 1.0)),
            ("ellipse", Ellipse((1.0, 0.5))),
            ("box_2d", Box((1.0, 0.5))), ("box_3d", Box((1.0, 0.5, 2.0))),
            ("graph", GraphHypersurface(0.5, 4, 3, window=(0.5, 1.5)))]


def edge_shifts(shape):
    """(inside, outside): an outward shift of a boundary point that still
    reads inside, and one that reads outside, from each class's fixed
    tolerance.  That is 1e-12 x max(1, diameter) for polytopes, offsets,
    balls and boxes; 1e-12 on the ellipse's quadratic form, which a shift
    moves by 2 to 4 times itself on these semi-axes; 0 for the graph."""
    if isinstance(shape, Ellipse):
        return 1e-13, 1e-11
    if isinstance(shape, GraphHypersurface):
        return 0.0, 1e-12
    tol = 1e-12 * max(1.0, shape.diameter())
    return 0.25 * tol, 10.0 * tol


@pytest.mark.parametrize("label,shape", membership_cases(),
                         ids=[lbl for lbl, _ in membership_cases()])
def test_contains_reads_rows_or_one_point_with_a_fixed_tolerance(label,
                                                                  shape):
    """Boundary samples moved along their inner normal read inside when
    moved in or out by less than the shape's tolerance, outside past it.
    One point (a 1-D array) gives a Python bool equal to its row's entry,
    and contains takes no tolerance argument."""
    surf = shape.boundary_sample(0.05 if shape.dim == 2 else 0.3)
    inside, outside = edge_shifts(shape)
    moved = []
    for shift, want in ((1e-3, True), (0.0, True), (-inside, True),
                        (-outside, False), (-1e-3, False)):
        pts = surf.points + shift * surf.normals
        got = shape.contains(pts)
        assert got.dtype == bool
        assert np.array_equal(got, np.full(len(pts), want)), shift
        moved.append(pts[::7])
    for p in np.vstack(moved):
        one = shape.contains(p)
        assert type(one) is bool
        assert one == shape.contains(p[None])[0]
    with pytest.raises(TypeError):
        shape.contains(surf.points[0], tol=1e-9)


def box_planes(extents):
    """The ConvexPolytope of a box's axis planes, with no inball given."""
    eye = np.eye(len(extents))
    return ConvexPolytope(np.vstack([eye, -eye]), np.tile(extents, 2))


BOX_EXTENTS = [(1.0, 1.0), (1.0, 0.5), (1.0, 0.5, 0.75)]


@pytest.mark.parametrize("extents", BOX_EXTENTS, ids=str)
def test_box_is_the_polytope_of_its_planes_bit_for_bit(extents):
    """A Box is the ConvexPolytope of its axis planes: the same arrays,
    bytes included, the same 2D cycle or 3D triangles, and the same
    diameter.  Its inball, the origin and the smallest half-extent, has
    the LP's radius; for the square the LP's centre too."""
    box, poly = Box(extents), box_planes(extents)
    pairs = [(box.vertices, poly.vertices), (box.normals, poly.normals),
             (box.offsets, poly.offsets)]
    if box.dim == 2:
        pairs += [(getattr(box._cycle, k), getattr(poly._cycle, k))
                  for k in _Cycle.__slots__]
    else:
        pairs += [(getattr(box.triangles(), k), getattr(poly.triangles(), k))
                  for k in _Triangles.__slots__]
    for got, want in pairs:
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert box.diameter() == poly.diameter()
    assert box.inradius() == min(extents)
    assert poly.inradius() == pytest.approx(min(extents), abs=1e-12)
    assert np.array_equal(box.chebyshev_center, np.zeros(box.dim))
    if extents == (1.0, 1.0):
        assert np.array_equal(poly.chebyshev_center, np.zeros(2))


def test_box_extents_are_read_only():
    given = np.array([2.0, 3.0])
    b = Box(given)
    assert np.array_equal(b.vertices[:, 0] ** 2, np.full(4, 4.0))
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


def test_polytope_vertices_lie_on_boundary():
    """The vertices, and in 3D every corner of the facet triangles, which
    are all of the vertices."""
    for dim in (2, 3):
        poly = make_random_polytope(9, seed=2, dim=dim)
        verts = poly.vertices
        if dim == 3:
            corners = poly.triangles().index
            assert np.array_equal(np.unique(corners), np.arange(len(verts)))
            verts = verts[corners.ravel()]
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


@pytest.mark.parametrize("facets, dim, spacing", [(128, 2, 0.01),
                                                   (32, 3, 0.2)])
def test_offset_membership_across_the_surface_matches_base_distance(
        facets, dim, spacing):
    """Points on both sides of the offset boundary: the facet-plane
    prefilter leaves every decision of the full formula."""
    poly = make_random_polytope(facets, 1, dim=dim)
    body = OffsetBody(poly, 0.3)
    surf = body.boundary_sample(spacing)
    rng = np.random.default_rng(4)
    pts = surf.points + rng.uniform(-0.05, 0.05, (len(surf), 1)) \
        * surf.normals
    pts = np.vstack([pts, surf.points, rng.uniform(-3.0, 3.0, (2000, dim))])
    tol = 1e-12 * body.diameter()
    full = poly.contains(pts) | (poly.boundary_distance(pts) <= 0.3 + tol)
    inside = body.contains(pts)
    assert np.array_equal(inside, full)
    assert inside.any() and not inside.all()


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
    near = project(ell, (3.0, 0.0)).nearest
    assert np.allclose(near, [(2.0, 0.0)], atol=1e-9)


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
    # graphs are planar: a spec of another dim raises, dim 2 or none loads
    spec = {"kind": "graph", "alpha": 0.5, "base": 4, "terms": 2,
            "window": [0.5, 1.5]}
    with pytest.raises(GeometryError, match="dim"):
        shape_from_spec({**spec, "dim": 3})
    for saved in (spec, {**spec, "dim": 2}):
        graph = shape_from_spec(saved)
        assert graph.dim == 2
        assert graph.to_spec() == spec


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


@pytest.mark.parametrize("n_facets, seed, dim",
                         [(8, 3, 2), (16, 1, 2), (64, 2, 2), (128, 1, 2),
                          (12, 5, 3), (32, 1, 3), (32, 7, 3)])
def test_random_polytope_inball_is_the_unit_ball(n_facets, seed, dim):
    """A random tangent polytope skips the Chebyshev LP: its inball is the
    unit ball about the origin, and its vertices are the ones the LP-seeded
    construction from the same halfspaces gives, bit for bit."""
    poly = make_random_polytope(n_facets, seed, dim)
    assert poly.inradius() == 1.0
    assert np.array_equal(poly.chebyshev_center, np.zeros(dim))
    solved = ConvexPolytope(poly.normals, poly.offsets)
    assert solved.inradius() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(poly.vertices, solved.vertices)


def test_open_cone_between_net_directions_is_rejected():
    """Normals spanning a half-turn less 0.002 leave an open cone of that
    width, narrower than the spacing of a 720-direction net.  The ring's
    gap test rejects it: the cyclic gap of 0.002 more than a half-turn
    between the first and last normal.  It runs before any LP, with an
    inball given or not."""
    ang = np.linspace(0.0, np.pi - 0.002, 9) + np.pi / 720
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    with pytest.raises(GeometryError, match="unbounded"):
        ConvexPolytope(normals, np.ones(9), _inball=(np.zeros(2), 1.0))
    with pytest.raises(GeometryError, match="unbounded"):
        ConvexPolytope(normals, np.ones(9))


# ---------------------------------------------------------------------------
# 2D vertices from the sorted half-plane ring
# ---------------------------------------------------------------------------

RING_PROPERTY = settings(max_examples=30, deadline=None)


def no_lp(monkeypatch):
    """Make any Chebyshev LP fail the test."""
    def boom(self):
        raise AssertionError("the Chebyshev LP ran")
    monkeypatch.setattr(ConvexPolytope, "_chebyshev", boom)


def max_gap(normals):
    """The largest cyclic gap between the sorted angles of 2D normals."""
    ang = np.sort(np.arctan2(normals[:, 1] + 0.0, normals[:, 0]))
    return float(np.diff(ang, append=ang[0] + 2.0 * np.pi).max())


@st.composite
def cluttered_polygons(draw):
    """A polygon tangent to the unit circle at k jittered directions
    (cyclic gaps below 0.7 pi), plus redundant lines: tangents at its vertices
    pushed outward by 1e-6 or more, copies of its lines pushed outward by
    0 or more, and lines that turn one of its normals by 1e-6 to 1e-3, a
    nearly parallel neighbour that cuts a short edge.  Rows are shuffled.

    A tangent through a vertex itself is left out: Qhull meets it with
    each side of the corner and keeps one of two points, off by rounding
    over the sine of the angle between the tangent and that side."""
    k = draw(st.integers(3, 12))
    jitter = draw(st.lists(st.floats(-0.2, 0.2), min_size=k, max_size=k))
    ang = 2.0 * np.pi * (np.arange(k) + np.array(jitter)) / k
    rows = [(np.cos(a), np.sin(a), 1.0) for a in ang]
    for i in range(k):
        a, b = ang[i], ang[(i + 1) % k]
        if i == k - 1:
            b += 2.0 * np.pi
        vertex = np.array([np.cos(a) + np.cos(b), np.sin(a) + np.sin(b)]) \
            / (1.0 + np.cos(b - a))
        if draw(st.booleans()):
            t = a + draw(st.floats(0.0, 1.0)) * (b - a)
            push = draw(st.sampled_from([1e-6, 1e-3, 0.5]))
            rows.append((np.cos(t), np.sin(t),
                         np.cos(t) * vertex[0] + np.sin(t) * vertex[1]
                         + push))
        if draw(st.booleans()):
            rows.append((np.cos(a), np.sin(a),
                         1.0 + draw(st.sampled_from([0.0, 1e-9, 0.25]))))
        if draw(st.booleans()):
            t = a + draw(st.sampled_from([-1.0, 1.0])) * draw(
                st.floats(1e-6, 1e-3))
            rows.append((np.cos(t), np.sin(t), 1.0))
    rows = np.array(rows)
    rows = rows[draw(st.permutations(range(len(rows))))]
    return rows[:, :2], rows[:, 2]


@RING_PROPERTY
@given(cluttered_polygons())
def test_ring_vertices_meet_the_qhull_contract(polygon):
    """Redundant tangents, duplicated normals and nearly parallel
    neighbours: the ring's vertices are Qhull's within the contract of
    oracles.assert_ring_matches_qhull."""
    normals, offsets = polygon
    poly = ConvexPolytope(normals, offsets, _inball=(np.zeros(2), 1.0))
    oracles.assert_ring_matches_qhull(poly)


@RING_PROPERTY
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_axis_aligned_box_vertices_are_exact(a, b):
    poly = Box((a, b))
    assert np.array_equal(poly.vertices,
                          [[-a, -b], [a, -b], [a, b], [-a, b]])


@RING_PROPERTY
@given(st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=12),
       st.booleans())
def test_polygon_is_unbounded_exactly_at_a_half_turn_gap(ang, inball):
    """Tangent lines to the unit circle: bounded exactly when every
    cyclic gap between their sorted normal angles is below pi, less
    OPEN_GAP_TOL.  No LP runs either way."""
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    given_ball = (np.zeros(2), 1.0) if inball else None
    with pytest.MonkeyPatch.context() as mp:
        no_lp(mp)
        if max_gap(normals) >= np.pi - OPEN_GAP_TOL:
            with pytest.raises(GeometryError, match="unbounded"):
                ConvexPolytope(normals, np.ones(len(ang)),
                               _inball=given_ball)
        else:
            ConvexPolytope(normals, np.ones(len(ang)), _inball=given_ball)


@pytest.mark.parametrize("offsets", [
    pytest.param([-1.0, 1.0, -1.0, 1.0], id="x<=-1_and_x>=1"),
    pytest.param([0.0, 1.0, 0.0, 1.0], id="zero_width_strip"),
])
def test_empty_polygon_is_rejected_without_the_lp(offsets, monkeypatch):
    """x <= c0, y <= c1, -x <= c2, -y <= c3: an infeasible pair of
    x-bounds, and a strip of zero width, are empty interiors, told by
    the ring without solving an LP."""
    no_lp(monkeypatch)
    normals = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(GeometryError, match="empty interior"):
        ConvexPolytope(normals, offsets)


def test_2d_polytope_solves_its_lp_only_when_its_ball_is_read(monkeypatch):
    no_lp(monkeypatch)
    poly = box_planes((1.0, 0.5))
    assert poly.area() == 2.0
    with pytest.raises(AssertionError, match="LP ran"):
        poly.inradius()
    with pytest.raises(AssertionError, match="LP ran"):
        poly.chebyshev_center
    monkeypatch.undo()
    assert poly.inradius() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# 3D vertices from the plane triples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, inradius", [
    pytest.param(lambda: box_planes((1.0, 0.5, 0.75)), 0.5, id="box"),
    pytest.param(lambda: ConvexPolytope(
        make_random_polytope(32, 1, dim=3).normals, np.ones(32)), 1.0,
        id="tangent32"),
])
def test_3d_polytope_solves_its_lp_only_when_its_ball_is_read(
        make, inradius, monkeypatch):
    """Vertices, facets, samplings and distances of a 3D polytope and its
    offset need no LP; only inradius() and chebyshev_center solve it."""
    no_lp(monkeypatch)
    poly = make()
    for shape in (poly, OffsetBody(poly, 0.3)):
        shape.boundary_sample(0.25)
        shape.boundary_distance(np.zeros((1, 3)))
    with pytest.raises(AssertionError, match="LP ran"):
        poly.inradius()
    with pytest.raises(AssertionError, match="LP ran"):
        poly.chebyshev_center
    monkeypatch.undo()
    assert poly.inradius() == pytest.approx(inradius)


@pytest.mark.parametrize("extents", [(1.0, 0.5), (1.0, 0.5, 0.75)],
                         ids=str)
def test_box_paths_never_solve_the_lp(extents, monkeypatch):
    """A Box's inball is known: inradius() and chebyshev_center, its
    sampling and distance, and its offset's, answer with no LP."""
    no_lp(monkeypatch)
    box = Box(extents)
    assert box.inradius() == min(extents)
    assert np.array_equal(box.chebyshev_center, np.zeros(len(extents)))
    body = OffsetBody(box, 0.3)
    assert body.inradius() == min(extents) + 0.3
    for shape in (box, body):
        shape.boundary_sample(0.25)
        shape.boundary_distance(np.zeros((1, len(extents))))


@pytest.mark.parametrize("extents, h", [((1.0, 0.5), 1.0 / 16),
                                        ((1.0, 0.5, 0.75), 0.25)], ids=str)
def test_offset_of_a_box_is_the_offset_of_its_planes_bit_for_bit(extents, h):
    """A box can be an offset base.  Its offset gives the distances, the
    multiproj flags at one grid step and the sampling of the offset of
    the ConvexPolytope of the same planes, bit for bit."""
    body, ref = OffsetBody(Box(extents), 0.3), OffsetBody(box_planes(extents),
                                                          0.3)
    grid = grid_covering(ref, h)
    pts = grid.points()
    assert np.array_equal(body.boundary_distance(pts),
                          ref.boundary_distance(pts))
    flags = detect_multiproj(body, grid).flags
    assert flags.any()
    assert np.array_equal(flags, detect_multiproj(ref, grid).flags)
    got, want = body.boundary_sample(h), ref.boundary_sample(h)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.normals, want.normals)


CUBE = np.vstack([np.eye(3), -np.eye(3)])


@pytest.mark.parametrize("normals, offsets, message", [
    pytest.param(CUBE, [-2.0, 1, 1, 1, 1, 1], "empty interior",
                 id="x<=-2_and_x>=-1"),
    pytest.param(CUBE, [0.0, 1, 1, 0, 1, 1], "empty interior",
                 id="zero_width_slab"),
    pytest.param(CUBE[:5], np.ones(5), "unbounded", id="open_box"),
    pytest.param(CUBE[[0, 3, 0, 3]], [1.0, 1, 2, 2], "unbounded",
                 id="parallel_normals"),
])
def test_3d_polytope_is_rejected_without_the_lp(normals, offsets, message,
                                                monkeypatch):
    """An infeasible pair of x-bounds and a slab of zero width are empty
    interiors; a box open on one side, and normals that are all parallel,
    are unbounded.  The planes tell, with no LP."""
    no_lp(monkeypatch)
    with pytest.raises(GeometryError, match=message):
        ConvexPolytope(normals, offsets)


@RING_PROPERTY
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_axis_aligned_3d_box_vertices_are_exact(a, b, c):
    poly = Box((a, b, c))
    corners = list(itertools.product((a, -a), (b, -b), (c, -c)))
    assert poly.vertices.shape == (8, 3)
    assert np.array_equal(np.unique(poly.vertices, axis=0),
                          np.unique(corners, axis=0))


@pytest.mark.parametrize("h", [1.0 / 8, 1.0 / 16])
@pytest.mark.parametrize("extents", [(1.0, 0.5, 0.75), (1.0, 2.0, 0.5)],
                         ids=str)
def test_mirror_flips_3d_box_multiproj_flags_exactly(extents, h):
    """On a grid symmetric about the origin a box's flags equal their own
    mirror image along each axis: its vertices are exact, so nothing
    breaks the symmetry (Qhull's vertices broke it for (1, 2, 0.5))."""
    k = int(np.ceil(max(extents) / h)) + 3
    grid = GridSpec((-k * h,) * 3, h, (2 * k + 1,) * 3)
    flags = detect_multiproj(Box(extents), grid).flags
    assert flags.any()
    for axis in range(3):
        assert np.array_equal(np.flip(flags, axis=axis), flags)


def test_3d_vertices_trace_a_bounded_peak():
    """The pairs and triples of 96 facet planes run in row blocks: one
    unblocked (triple, plane) slack matrix would be about 110 MB."""
    make_random_polytope(12, 1, dim=3)          # imports and first calls
    tracemalloc.start()
    try:
        make_random_polytope(96, 1, dim=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


RING_FACETS = (8, 12, 16, 24, 32, 48, 64, 96, 128)


def rotated(poly):
    """The polygon of poly's normals turned by 90 degrees, its inball
    given, as make_random_polytope gives poly's."""
    normals = np.column_stack([-poly.normals[:, 1], poly.normals[:, 0]])
    return ConvexPolytope(normals, poly.offsets, _inball=(np.zeros(2), 1.0))


@pytest.mark.parametrize("facets", RING_FACETS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quarter_turn_rotates_ring_vertices_exactly(facets, seed):
    """Each dot product of the ring is a*b + c*d, whose terms a quarter
    turn only swaps and negates in pairs, so the turned normals give the
    turned vertices bit for bit, the ring starting at another vertex."""
    poly = make_random_polytope(facets, seed)
    turned = np.column_stack([-poly.vertices[:, 1], poly.vertices[:, 0]])
    got = rotated(poly).vertices
    assert any(np.array_equal(np.roll(turned, k, axis=0), got)
               for k in range(len(got)))


@pytest.mark.parametrize("facets", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quarter_turn_rotates_multiproj_flags_exactly(facets, seed):
    """On a grid symmetric about the origin at h = 1/32, the turned
    polygon's flags are np.rot90 of the polygon's."""
    h = 1.0 / 32
    poly = make_random_polytope(facets, seed)
    k = int(np.ceil(np.abs(poly.vertices).max() / h)) + 3
    grid = GridSpec((-k * h, -k * h), h, (2 * k + 1, 2 * k + 1))
    flags = detect_multiproj(poly, grid).flags
    assert flags.any()
    assert np.array_equal(detect_multiproj(rotated(poly), grid).flags,
                          np.rot90(flags))


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


NAN, INF = float("nan"), float("inf")
SQUARE_NORMALS = np.vstack([np.eye(2), -np.eye(2)])
TWO_POINTS = np.array([[1.0, 0.0], [0.0, 1.0]])

# case id: (expected error, constructor call with one bad argument)
BAD_CONSTRUCTIONS = {
    "grid_nan_origin": (GridError, lambda: GridSpec((NAN, 0.0), 0.1, (8, 8))),
    "grid_inf_origin": (GridError, lambda: GridSpec((0.0, -INF), 0.1, (8, 8))),
    "grid_nan_spacing": (GridError, lambda: GridSpec((0.0, 0.0), NAN, (8, 8))),
    "grid_inf_spacing": (GridError, lambda: GridSpec((0.0, 0.0), INF, (8, 8))),
    "ball_nan_centre": (GeometryError, lambda: Ball((NAN, 0.0), 1.0)),
    "ball_nan_radius": (GeometryError, lambda: Ball((0.0, 0.0), NAN)),
    "ball_inf_radius": (GeometryError, lambda: Ball((0.0, 0.0), INF)),
    "ellipse_nan_axis": (GeometryError, lambda: Ellipse((1.0, NAN))),
    "ellipse_inf_axis": (GeometryError, lambda: Ellipse((INF, 1.0))),
    "offset_nan_epsilon": (GeometryError, lambda: OffsetBody(
        ConvexPolytope(SQUARE_NORMALS, np.ones(4)), NAN)),
    "offset_inf_epsilon": (GeometryError, lambda: OffsetBody(
        ConvexPolytope(SQUARE_NORMALS, np.ones(4)), INF)),
    "box_nan_extent": (GeometryError, lambda: Box((1.0, NAN))),
    "box_inf_extent": (GeometryError, lambda: Box((INF, 1.0))),
    "sampled_nan_normal": (GeometryError, lambda: SampledSurface(
        TWO_POINTS, [[NAN, 0.0], [0.0, -1.0]], 0.1)),
    "sampled_nan_spacing": (GeometryError, lambda: SampledSurface(
        TWO_POINTS, -TWO_POINTS, NAN)),
    "sampled_zero_spacing": (GeometryError, lambda: SampledSurface(
        TWO_POINTS, -TWO_POINTS, 0.0)),
    "polytope_nan_normal": (GeometryError, lambda: ConvexPolytope(
        np.vstack([[NAN, 0.0], SQUARE_NORMALS[1:]]), np.ones(4))),
    "polytope_nan_offset": (GeometryError, lambda: ConvexPolytope(
        SQUARE_NORMALS, [1.0, NAN, 1.0, 1.0])),
    "polytope_inf_offset": (GeometryError, lambda: ConvexPolytope(
        SQUARE_NORMALS, [1.0, 1.0, INF, 1.0])),
    "graph_inf_window": (GeometryError, lambda: GraphHypersurface(
        0.5, 4, 2, window=(0.0, INF))),
}


@pytest.mark.parametrize("case", BAD_CONSTRUCTIONS)
def test_constructors_reject_non_finite_and_non_positive_input(case):
    """A NaN or infinite coordinate, or a spacing, radius, semi-axis,
    extent or epsilon that is not a finite positive number, raises the
    module's typed error at construction (a polytope's, not linprog's
    ValueError)."""
    error, build = BAD_CONSTRUCTIONS[case]
    with pytest.raises(error):
        build()


def disk_mask():
    disk = Ball((0.0, 0.0), 1.0)
    return detect_multiproj(disk, grid_covering(disk, 0.25))


def disk_field():
    disk = Ball((0.0, 0.0), 1.0)
    return distance_field(disk, grid_covering(disk, 0.25))


def square_radius(**bad):
    args = {"a": (1.0, 0.0), "nu": (-1.0, 0.0), "r_max": 1.0, **bad}
    return inner_ball_radius(Box((1.0, 1.0)), **args)


def unit_disk_sample(spacing):
    return Ball((0.0, 0.0), 1.0).boundary_sample(spacing)


# entry point and argument: (expected error, call with the bad value)
BAD_PARAMETERS = {
    ("boundary_sample", "spacing"): (
        GeometryError, unit_disk_sample, (NAN, INF, -0.1, 0.0)),
    ("grid_covering", "spacing"): (
        GridError, lambda v: grid_covering(Ball((0.0, 0.0), 1.0), v),
        (NAN, INF, -0.1, 0.0)),
    ("residuals", "margin"): (
        GridError, lambda v: residuals(disk_field(), margin=v),
        (NAN, INF, -1.0)),
    ("nearest_node", "point"): (
        GridError, lambda v: disk_field().grid.nearest_node((v, 0.0)),
        (NAN, INF, -INF)),
    ("grid_covering", "margin"): (
        GridError,
        lambda v: grid_covering(Ball((0.0, 0.0), 1.0), 0.1, margin=v),
        (NAN, INF, -0.1)),
    ("inner_ball_profile", "spacing"): (
        GeometryError, lambda v: inner_ball_profile(Box((1.0, 1.0)), v, 0.5),
        (NAN, INF, -0.1)),
    ("inner_ball_profile", "r_max"): (
        InnerBallError,
        lambda v: inner_ball_profile(Box((1.0, 1.0)), 0.5, v),
        (NAN, INF, -0.5, 0.0)),
    ("inner_ball_profile", "tau_ball"): (
        InnerBallError,
        lambda v: inner_ball_profile(Box((1.0, 1.0)), 0.5, 0.5, tau_ball=v),
        (NAN, INF, -1e-3)),
    ("inner_ball_radius", "a"): (
        InnerBallError, lambda v: square_radius(a=(v, 0.0)), (NAN, INF)),
    ("inner_ball_radius", "nu"): (
        InnerBallError, lambda v: square_radius(nu=(v, 0.0)), (NAN, INF)),
    ("inner_ball_radius", "r_max"): (
        InnerBallError, lambda v: square_radius(r_max=v), (NAN, INF, -1.0)),
    ("coverage_density", "r"): (
        DetectionError, lambda v: coverage_density(disk_mask(), None, v),
        (NAN, INF, -0.5)),
    ("detect_gradjump", "theta_deg"): (
        DetectionError, lambda v: detect_gradjump(disk_field(), theta_deg=v),
        (NAN, INF, -INF, -30.0, 0.0, 270.0)),
    ("uniform_condition_report", "rho_min"): (
        InnerBallError,
        lambda v: uniform_condition_report(Ball((0.0, 0.0), 1.0), 0.1, v,
                                           r_max=0.2),
        (NAN, INF, -0.05, 0.0)),
    ("normal_map_injectivity", "t_values"): (
        InnerBallError,
        lambda v: normal_map_injectivity(unit_disk_sample(0.1), [0.1, v]),
        (NAN, INF, -0.1)),
    ("normal_map_injectivity", "rho_cap"): (
        InnerBallError,
        lambda v: normal_map_injectivity(unit_disk_sample(0.1), [0.1],
                                         rho_cap=v),
        (NAN, INF, -0.1)),
    ("inclusion_violations", "radius"): (
        DetectionError,
        lambda v: inclusion_violations(disk_mask(), disk_mask(), v),
        (NAN, INF, -0.1)),
    ("mask_agreement", "radius"): (
        DetectionError, lambda v: mask_agreement(disk_mask(), disk_mask(), v),
        (NAN, INF, -0.1)),
}


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{case[0]}-{case[1]}={value}")
    for case, (_, _, values) in BAD_PARAMETERS.items() for value in values])
def test_entry_points_reject_non_finite_and_out_of_range_parameters(case,
                                                                     value):
    """A NaN or infinite parameter, or one of the wrong sign, raises the
    typed error of the module that reads it, at its entry point; none of
    these returns an answer.  A sampling spacing is checked by the
    sampler, so inner_ball_profile's raises GeometryError."""
    error, call, _ = BAD_PARAMETERS[case]
    with pytest.raises(error):
        call(value)
