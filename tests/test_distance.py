"""Grids, scalar fields, gradients, and the field file format."""

import os

import numpy as np
import pytest

from sigma_eikonal import geometry
from sigma_eikonal.distance import (
    GridError,
    GridSpec,
    ScalarField,
    SingularPointError,
    ZeroDistanceError,
    distance_field,
    gradient_by_projection,
    gradient_field,
    grid_covering,
    read_field,
    signed_distance_field,
    _node_distance,
    thread_count,
    write_field,
)
from sigma_eikonal.eikonal import problem_from_shape
from sigma_eikonal.geometry import (
    Ball,
    GeometryError,
    GraphHypersurface,
    OffsetBody,
    make_random_polytope,
)
from sigma_eikonal.singular import detect_multiproj


def square_distance_analytic(pts):
    """Distance from any plane point to the boundary of [-1,1]^2."""
    q = np.abs(pts) - 1.0
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(q.max(axis=1), 0.0)
    return np.abs(outside + inside)


def test_grid_spec_validation():
    with pytest.raises(GridError):
        GridSpec((0.0, 0.0), 0.0, (16, 16))
    with pytest.raises(GridError):
        GridSpec((0.0, 0.0), 0.1, (4, 16))       # too few nodes per axis
    with pytest.raises(GridError):
        GridSpec((0.0,), 0.1, (16,))              # 1D unsupported
    g = GridSpec((0.0, 0.0), 0.125, (16, 16))
    assert g.dim == 2
    assert g.n_nodes == 256


def test_grid_covering_snaps_to_step_multiples(unit_square):
    h = 1.0 / 64
    g = grid_covering(unit_square, h)
    rel = np.asarray(g.origin) / h
    assert np.allclose(rel, np.round(rel), atol=1e-9)
    lo, hi = unit_square.bbox()
    assert np.all(np.asarray(g.origin) <= lo)
    assert np.all(np.asarray(g.upper()) >= hi)
    # a node lands exactly on the center
    pts = g.points()
    assert np.min(np.linalg.norm(pts, axis=1)) <= 1e-12


def test_square_field_matches_analytic_formula(unit_square):
    g = grid_covering(unit_square, 1.0 / 32)
    fld = distance_field(unit_square, g)
    expected = square_distance_analytic(g.points()).reshape(g.dims)
    assert np.abs(fld.values - expected).max() <= 1e-12


def test_signed_field_signs(unit_square):
    g = grid_covering(unit_square, 1.0 / 32)
    fld = signed_distance_field(unit_square, g)
    pts = g.points()
    inside = unit_square.contains(pts).reshape(g.dims)
    assert np.all(fld.values[inside] >= 0.0)
    assert np.all(fld.values[~inside] <= 0.0)
    assert fld.kind == "signed_distance"


def test_signed_field_requires_convex_body():
    graph = GraphHypersurface(alpha=0.5, base=4, terms=2, window=(0.0, 1.0))
    g = GridSpec((0.0, -1.0), 0.125, (16, 16))
    with pytest.raises(GridError):
        signed_distance_field(graph, g, check_cover=False)


def test_distance_field_is_deterministic(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    a = distance_field(unit_disk, g)
    b = distance_field(unit_disk, g)
    assert np.array_equal(a.values, b.values)


def test_field_round_trip(tmp_path, unit_disk):
    g = grid_covering(unit_disk, 1.0 / 16)
    fld = distance_field(unit_disk, g)
    path = tmp_path / "disk.field"
    write_field(fld, path)
    back = read_field(path)
    assert back.kind == fld.kind
    assert back.grid == fld.grid
    assert np.array_equal(back.values, fld.values)


def test_field_rejects_negative_distance():
    g = GridSpec((0.0, 0.0), 0.1, (8, 8))
    with pytest.raises(GridError):
        ScalarField(g, -np.ones(g.dims), kind="distance")


def test_lipschitz_violation_zero_on_true_distance(unit_square):
    g = grid_covering(unit_square, 1.0 / 32)
    fld = distance_field(unit_square, g)
    assert fld.lipschitz_violation() == 0.0


def test_graph_fields_need_a_sampling():
    graph = GraphHypersurface(alpha=0.5, base=4, terms=2, window=(0.0, 1.0))
    g = GridSpec((0.0, -1.0), 0.125, (16, 16))
    with pytest.raises(GeometryError, match="boundary_sample"):
        distance_field(graph, g, check_cover=False)


def test_gradient_by_projection_unit_norm(unit_square):
    rng = np.random.default_rng(19)
    pts = rng.uniform(-0.9, 0.9, size=(50, 2))
    for p in pts:
        if abs(abs(p[0]) - abs(p[1])) < 0.05:
            continue  # skip the diagonals where the gradient jumps
        grad = gradient_by_projection(unit_square, p)
        assert np.linalg.norm(grad) == pytest.approx(1.0, abs=1e-12)


def test_gradient_by_projection_raises_on_ties(unit_square):
    with pytest.raises(SingularPointError):
        gradient_by_projection(unit_square, (0.5, 0.5))
    with pytest.raises(ZeroDistanceError):
        gradient_by_projection(unit_square, (1.0, 0.3))


def test_finite_difference_gradient_exact_on_linear_region(unit_square):
    g = grid_covering(unit_square, 1.0 / 32)
    fld = distance_field(unit_square, g)
    idx = g.nearest_node((0.5, 0.0))     # interior face region, d = 1 - x
    assert 0 < min(idx) and all(i < d - 1 for i, d in zip(idx, g.dims))
    assert np.allclose(gradient_field(fld)[idx], (-1.0, 0.0), atol=1e-12)


def test_gradient_field_unit_norm_off_singularities(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    fld = distance_field(unit_disk, g)
    grads = gradient_field(fld)
    norms = np.linalg.norm(grads, axis=-1)
    pts = g.points()
    r = np.linalg.norm(pts, axis=1).reshape(g.dims)
    # interior ring away from the center tie and the boundary kink
    ring = (r > 0.3) & (r < 0.9)
    assert np.abs(norms[ring] - 1.0).max() <= 0.01


def test_thread_count_env_override(monkeypatch):
    monkeypatch.setenv("SIGMA_EIKONAL_THREADS", "3")
    assert thread_count() == min(3, os.cpu_count() or 1)
    monkeypatch.setenv("SIGMA_EIKONAL_THREADS", "not-a-number")
    assert thread_count() >= 1


# ---------------------------------------------------------------------------
# the (shape, grid) node-distance memo
# ---------------------------------------------------------------------------

def test_node_distance_memo_hit_equals_a_fresh_evaluation(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 16)
    first = _node_distance(unit_disk, g)
    again = _node_distance(unit_disk, GridSpec(g.origin, g.spacing, g.dims))
    assert again is first
    assert not first.flags.writeable
    assert np.array_equal(again, unit_disk.boundary_distance(g.points()))


def test_node_distance_memo_misses_on_another_origin_or_spacing(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 16)
    first = _node_distance(unit_disk, g)
    for other in (GridSpec(tuple(v + 0.01 for v in g.origin), g.spacing,
                           g.dims),
                  GridSpec(g.origin, 1.0 / 15, g.dims)):
        d = _node_distance(unit_disk, other)
        assert d is not first
        assert np.array_equal(d, unit_disk.boundary_distance(other.points()))


def test_callers_cannot_corrupt_the_memo(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 16)
    fresh = unit_disk.boundary_distance(g.points()).reshape(g.dims)
    fld = distance_field(unit_disk, g)
    fld.values[:] = -1.0                      # a field owns its values
    assert np.array_equal(distance_field(unit_disk, g).values, fresh)
    detect_multiproj(unit_disk, g)
    with pytest.raises(ValueError):
        _node_distance(unit_disk, g)[0] = -1.0    # the memo is read-only
    detect_multiproj(unit_disk, g)
    assert np.array_equal(_node_distance(unit_disk, g).reshape(g.dims), fresh)


@pytest.mark.parametrize("h", [0.6, 0.25])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_3d_offset_node_distance_is_its_boundary_distance(seed, h):
    body = OffsetBody(make_random_polytope(32, seed, dim=3), 0.3)
    g = grid_covering(body, h)
    d = _node_distance(body, g)
    assert np.array_equal(d, body.boundary_distance(g.points()))
    assert _node_distance(body.base, g) is body.base._node_memo[1]


def test_one_base_kernel_run_over_the_3d_march_sequence(monkeypatch):
    """A polytope and its offset, each distance_field then
    problem_from_shape on one grid, run the triangle kernel once."""
    kernel = geometry._polytope_boundary_distance_3d
    calls = []

    def counting(poly, points):
        calls.append(len(points))
        return kernel(poly, points)

    monkeypatch.setattr(geometry, "_polytope_boundary_distance_3d", counting)
    poly = make_random_polytope(32, 1, dim=3)
    body = OffsetBody(poly, 0.3)
    g = grid_covering(body, 0.6)
    fields = []
    for shape in (poly, body):
        fields.append(distance_field(shape, g).values.ravel())
        problem_from_shape(shape, g)
    assert calls == [g.n_nodes]
    monkeypatch.undo()
    assert np.array_equal(fields[0], poly.boundary_distance(g.points()))
    assert np.array_equal(fields[1], body.boundary_distance(g.points()))
