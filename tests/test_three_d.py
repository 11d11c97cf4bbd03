"""3D polytopes and offsets against oracles independent of the kernels.

Each oracle is a closed form or a sampling that shares no code with the
closest-point-on-triangle kernel: facet slacks inside a convex body, the
box formula, a dense boundary sampling, and the Lipschitz bound of a
distance function.  Singular-set flags are held to what the paper's
premises imply for a convex body: none outside it (Motzkin), and inside
the base every flag of the base is a flag of its offset.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from sigma_eikonal.distance import distance_field, grid_covering
from sigma_eikonal.eikonal import fast_march, problem_from_shape
from sigma_eikonal.geometry import (
    Box,
    ConvexPolytope,
    GeometryError,
    OffsetBody,
    SampledSurface,
    make_random_polytope,
)
from sigma_eikonal.projection import project
from sigma_eikonal.singular import detect_multiproj

import oracles
from conftest import dense_boundary_distance

FACETS, EPS = 32, 0.3
PROPERTY = settings(max_examples=30, deadline=None)
FIELD_PROPERTY = settings(max_examples=6, deadline=None)
MASK_H = 0.3

seeds = st.integers(0, 2 ** 16)
coord = st.floats(-1.0, 1.0, allow_nan=False)


def polytope(seed, facets=FACETS):
    try:
        return make_random_polytope(facets, seed, dim=3)
    except GeometryError:
        reject()


def interior_point(poly, vertex, t, u):
    """A convex combination of a vertex and a unit-ball point: inside,
    because a tangent polytope contains the unit ball."""
    u = np.asarray(u)
    u = u / max(1.0, float(np.linalg.norm(u)))
    return t * poly.vertices[vertex % len(poly.vertices)] + (1.0 - t) * u


@PROPERTY
@given(seed=seeds, vertex=st.integers(0, 10 ** 6), t=st.floats(0.0, 1.0),
       u=st.tuples(coord, coord, coord))
def test_interior_distance_is_smallest_facet_slack(seed, vertex, t, u):
    poly = polytope(seed)
    x = interior_point(poly, vertex, t, u)
    slack = float(np.min(poly.offsets - poly.normals @ x))
    d = poly.boundary_distance(x)[0]
    assert abs(d - slack) <= 1e-12 * poly.diameter()


@PROPERTY
@given(seed=seeds, vertex=st.integers(0, 10 ** 6), t=st.floats(0.0, 1.0),
       u=st.tuples(coord, coord, coord))
def test_offset_identity_inside_the_base(seed, vertex, t, u):
    poly = polytope(seed)
    body = OffsetBody(poly, EPS)
    x = interior_point(poly, vertex, t, u)
    slack = float(np.min(poly.offsets - poly.normals @ x))
    d = body.boundary_distance(x)[0]
    assert abs(d - (slack + EPS)) <= 1e-12 * body.diameter()


@FIELD_PROPERTY
@given(seed=seeds)
def test_distance_fields_are_1_lipschitz(seed):
    poly = polytope(seed)
    body = OffsetBody(poly, EPS)
    grid = grid_covering(body, 0.4)
    for shape in (poly, body):
        assert distance_field(shape, grid).lipschitz_violation(slack=1e-12) \
            == 0.0


@FIELD_PROPERTY
@given(seed=seeds)
def test_march_reaches_every_node(seed):
    poly = polytope(seed)
    body = OffsetBody(poly, EPS)
    grid = grid_covering(body, 0.6)
    for shape in (poly, body):
        u = fast_march(problem_from_shape(shape, grid))
        assert u.meta == {"accepted": grid.n_nodes, "unreachable": 0}
        assert np.all(np.isfinite(u.values))
        assert u.values.min() >= 0.0


@PROPERTY
@given(pts=st.lists(st.tuples(*(st.floats(-3.0, 3.0),) * 3),
                    min_size=1, max_size=50))
def test_cube_polytope_matches_box_formula(pts):
    box = Box((1.0, 1.0, 1.0))
    pts = np.array(pts)
    d = box.as_polytope().boundary_distance(pts)
    assert np.abs(d - oracles.box_boundary_distance(box, pts)).max() <= 1e-12


def test_cube_field_matches_box_formula():
    """A grid field spans several kernel blocks; every node still agrees."""
    box = Box((1.0, 1.0, 1.0))
    grid = grid_covering(box, 0.1)
    fld = distance_field(box.as_polytope(), grid)
    ref = oracles.box_boundary_distance(box, grid.points()).reshape(grid.dims)
    assert grid.n_nodes > 10_000
    assert np.abs(fld.values - ref).max() <= 1e-12


def test_exterior_distance_matches_dense_sampling():
    """Outside, the exact distance is at most the distance to a dense
    boundary sampling, and falls short of it by less than the spacing."""
    rng = np.random.default_rng(3)
    poly = make_random_polytope(FACETS, 1, dim=3)
    body = OffsetBody(poly, EPS)
    pts = rng.normal(size=(300, 3))
    pts *= rng.uniform(1.5, 4.0, (300, 1)) * poly.diameter() \
        / np.linalg.norm(pts, axis=1, keepdims=True)
    spacing = 0.05
    for shape in (poly, body):
        d = shape.boundary_distance(pts)
        gap = dense_boundary_distance(shape, pts, spacing) - d
        assert gap.min() >= -1e-12
        assert gap.max() <= spacing


@PROPERTY
@given(seed=seeds, pts=st.lists(st.tuples(*(st.floats(-2.5, 2.5),) * 3),
                                min_size=1, max_size=10))
def test_projection_feet_lie_on_the_boundary_and_attain_the_distance(seed,
                                                                    pts):
    poly = polytope(seed)
    for shape in (poly, OffsetBody(poly, EPS)):
        tol = 1e-9 * shape.diameter()
        for x in np.array(pts):
            res = project(shape, x)
            d = shape.boundary_distance(x)[0]
            assert abs(res.distance - d) <= 1e-12 * shape.diameter()
            assert np.abs(np.linalg.norm(res.nearest - x, axis=1) - d).max() \
                <= tol
            assert shape.boundary_distance(res.nearest).max() <= tol


def masks(seed):
    """Multiproj masks of a seeded polytope and its offset on one grid."""
    poly = polytope(seed)
    body = OffsetBody(poly, EPS)
    grid = grid_covering(body, MASK_H)
    return poly, body, grid, detect_multiproj(poly, grid), \
        detect_multiproj(body, grid)


@FIELD_PROPERTY
@given(seed=seeds)
def test_no_flag_outside_a_convex_body(seed):
    poly, body, grid, base_mask, body_mask = masks(seed)
    pts = grid.points()
    for shape, mask in ((poly, base_mask), (body, body_mask)):
        assert not mask.flags.reshape(-1)[~shape.contains(pts)].any()


@FIELD_PROPERTY
@given(seed=seeds)
def test_base_flags_are_offset_flags_inside_the_base(seed):
    poly, _, grid, base_mask, body_mask = masks(seed)
    both = poly.contains(grid.points()).reshape(grid.dims) \
        & ~base_mask.excluded & ~body_mask.excluded
    assert not (base_mask.flags & both & ~body_mask.flags).any()


@FIELD_PROPERTY
@given(seed=seeds)
def test_flags_are_exactly_the_non_singleton_projections(seed):
    poly, body, grid, base_mask, body_mask = masks(seed)
    pts = grid.points()
    for shape, mask in ((poly, base_mask), (body, body_mask)):
        flags = mask.flags.reshape(-1)
        for i in np.flatnonzero(~mask.excluded.reshape(-1))[::7]:
            res = project(shape, pts[i], tau_multi=MASK_H)
            assert res.is_singleton != flags[i]


def test_offset_samples_skip_edges_inside_one_facet_plane():
    """Only edges between two facets get a strip: the fan diagonals inside
    one facet, whose normals meet at no angle, get none, so no sample is
    NaN."""
    body = OffsetBody(make_random_polytope(FACETS, 2, dim=3), EPS)
    for spacing in (0.3, 0.1):
        surf = body.boundary_sample(spacing)
        assert np.isfinite(surf.points).all()
        assert np.isfinite(surf.normals).all()


def test_sampled_surface_rejects_non_finite_points():
    pts = np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]])
    nrm = np.array([[0.0, 0.0, -1.0]] * 2)
    with pytest.raises(GeometryError):
        SampledSurface(pts, nrm, spacing=0.1)



# ---------------------------------------------------------------------------
# vertices from the plane triples against Qhull's
# ---------------------------------------------------------------------------

def pyramid():
    """A square pyramid: a base z >= -1 and four sides whose planes all
    meet at the apex (0, 0, 1)."""
    r = np.sqrt(0.5)
    sides = [(r, 0.0, r), (-r, 0.0, r), (0.0, r, r), (0.0, -r, r)]
    return np.array(sides + [(0.0, 0.0, -1.0)]), np.r_[np.full(4, r), 1.0]


@st.composite
def cluttered_polytopes(draw):
    """A cube, the pyramid whose apex has four planes, or a tangent
    polytope of 8 to 32 seeded random normals, plus redundant planes:
    copies of its planes pushed out by 0 (a duplicated normal), 1e-6 or
    0.25, and planes at its vertices, their normals drawn from the
    vertex's normal cone, pushed out by 1e-6 or more.  Rows are
    shuffled."""
    base = draw(st.sampled_from(["cube", "pyramid", "random"]))
    if base == "cube":
        normals, offsets = np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)
    elif base == "pyramid":
        normals, offsets = pyramid()
    else:
        poly = polytope(draw(seeds), draw(st.integers(8, 32)))
        normals, offsets = poly.normals, poly.offsets
    verts = ConvexPolytope(normals, offsets).vertices
    rng = np.random.default_rng(draw(seeds))
    rows = [np.c_[normals, offsets]]
    for _ in range(draw(st.integers(0, 4))):
        k = rng.integers(len(offsets))
        rows.append([*normals[k], offsets[k]
                     + draw(st.sampled_from([0.0, 1e-6, 0.25]))])
    for _ in range(draw(st.integers(0, 4))):
        v = verts[rng.integers(len(verts))]
        cone = normals[np.abs(normals @ v - offsets) <= 1e-9]
        n = rng.uniform(0.1, 1.0, len(cone)) @ cone
        n /= np.linalg.norm(n)
        rows.append([*n, n @ v + draw(st.sampled_from([1e-6, 1e-3, 0.5]))])
    rows = np.vstack(rows)
    rows = rows[draw(st.permutations(range(len(rows))))]
    return rows[:, :3], rows[:, 3]


@PROPERTY
@given(cluttered_polytopes())
def test_plane_triple_vertices_meet_the_qhull_contract(planes):
    """Random normals, duplicated normals, redundant planes and a vertex
    of four planes: the vertices are Qhull's within the contract of
    oracles.assert_vertices_match_qhull, and the facet triangles use
    every vertex."""
    poly = ConvexPolytope(*planes)
    oracles.assert_vertices_match_qhull(poly)
    assert np.array_equal(np.unique(poly.triangles().index),
                          np.arange(len(poly.vertices)))
