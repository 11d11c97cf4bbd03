"""Nearest-point projection: exact feet, multiplicity, and brute-force
agreement."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigma_eikonal import projection
from sigma_eikonal.distance import GridError, GridSpec, _node_distance, \
    distance_field, grid_covering
from sigma_eikonal.geometry import (
    Ball,
    Box,
    Ellipse,
    OffsetBody,
    make_random_polytope,
)
from sigma_eikonal.projection import (
    ProjectionError,
    default_tau_multi,
    project,
)
from sigma_eikonal.singular import DetectionError, detect_multiproj

import oracles
from conftest import dense_boundary_distance


def test_circle_projection_analytic(unit_disk):
    res = project(unit_disk, (0.3, 0.4))
    assert res.distance == pytest.approx(0.5, abs=1e-12)
    assert res.is_singleton
    assert np.allclose(res.nearest[0], (0.6, 0.8), atol=1e-12)

    out = project(unit_disk, (3.0, 4.0))
    assert out.distance == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(out.nearest[0], (0.6, 0.8), atol=1e-12)


def test_ball_center_is_a_continuum_tie(unit_disk):
    res = project(unit_disk, (0.0, 0.0))
    assert res.distance == pytest.approx(1.0, abs=1e-12)
    assert not res.is_singleton
    assert res.spread == pytest.approx(2.0, abs=1e-9)


def test_square_center_has_four_feet(unit_square):
    res = project(unit_square, (0.0, 0.0))
    assert res.distance == pytest.approx(1.0, abs=1e-12)
    assert not res.is_singleton
    assert res.nearest.shape[0] == 4
    assert res.spread == pytest.approx(2.0, abs=1e-12)
    feet = set(map(tuple, np.round(res.nearest, 9)))
    assert feet == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}


def test_square_diagonal_point_has_two_feet(unit_square):
    res = project(unit_square, (0.5, 0.5))
    assert res.distance == pytest.approx(0.5, abs=1e-12)
    assert not res.is_singleton
    assert res.nearest.shape[0] == 2
    feet = set(map(tuple, np.round(res.nearest, 9)))
    assert feet == {(1.0, 0.5), (0.5, 1.0)}


def test_square_off_diagonal_is_singleton(unit_square):
    res = project(unit_square, (0.5, 0.2))
    assert res.is_singleton
    assert np.allclose(res.nearest[0], (1.0, 0.2), atol=1e-12)


def test_polytope_projection_matches_dense_scan(tilted_polytope):
    poly = tilted_polytope
    rng = np.random.default_rng(17)
    lo, hi = poly.bbox()
    pts = rng.uniform(lo - 0.5, hi + 0.5, size=(60, 2))
    d_oracle = dense_boundary_distance(poly, pts, spacing=0.002)
    for p, d_ref in zip(pts, d_oracle):
        res = project(poly, p)
        assert res.distance <= d_ref + 1e-9
        assert res.distance >= d_ref - 0.002


def test_exterior_of_convex_body_is_singleton():
    rng = np.random.default_rng(23)
    for seed in (1, 6):
        poly = make_random_polytope(9, seed=seed)
        lo, hi = poly.bbox()
        pts = rng.uniform(lo - 1.0, hi + 1.0, size=(200, 2))
        outside = ~poly.contains(pts)
        for p in pts[outside]:
            assert project(poly, p).is_singleton


def test_offset_projection_in_three_zones(offset_square):
    body = offset_square
    # deep inside the base square: foot on the nearest offset edge
    res = project(body, (0.2, 0.0))
    assert res.distance == pytest.approx(0.5 + 0.8, abs=1e-12)
    assert np.allclose(res.nearest[0], (1.5, 0.0), atol=1e-12)
    # in the shell between base and offset boundary
    res = project(body, (1.2, 0.0))
    assert res.distance == pytest.approx(0.3, abs=1e-12)
    # outside
    res = project(body, (2.0, 0.0))
    assert res.distance == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(res.nearest[0], (1.5, 0.0), atol=1e-12)


def test_offset_corner_arc_foot_exact(offset_square):
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    x = np.array([1.0, 1.0]) + 1.2 * u
    res = project(offset_square, x)
    assert res.distance == pytest.approx(0.7, abs=1e-12)
    assert np.allclose(res.nearest[0], np.array([1.0, 1.0]) + 0.5 * u,
                       atol=1e-12)


def test_offset_distance_matches_dense_scan(offset_square):
    rng = np.random.default_rng(31)
    pts = rng.uniform(-2.2, 2.2, size=(60, 2))
    d_oracle = dense_boundary_distance(offset_square, pts, spacing=0.002)
    for p, d_ref in zip(pts, d_oracle):
        res = project(offset_square, p)
        assert abs(res.distance - d_ref) <= 0.002


def test_sampled_circle_matches_exact(unit_disk):
    surf = unit_disk.boundary_sample(0.01)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.8, 1.8, size=(80, 2))
    for p in pts:
        if np.linalg.norm(p) < 0.05:
            continue
        exact = abs(1.0 - np.linalg.norm(p))
        res = project(surf, p)
        assert abs(res.distance - exact) <= 0.006


def test_sampled_circle_center_ties_whole_circle(unit_disk):
    surf = unit_disk.boundary_sample(0.01)
    res = project(surf, (0.0, 0.0))
    assert not res.is_singleton
    assert res.spread >= 1.0


def test_sampled_square_center_multiplicity(unit_square):
    surf = unit_square.boundary_sample(0.01)
    res = project(surf, (0.0, 0.0))
    assert not res.is_singleton
    assert res.spread == pytest.approx(2.0, abs=0.05)


def test_distance_is_one_lipschitz(tilted_polytope):
    rng = np.random.default_rng(77)
    pts = rng.uniform(-2.0, 2.0, size=(80, 2))
    d = np.array([project(tilted_polytope, p).distance for p in pts])
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = np.linalg.norm(pts[i] - pts[j])
            assert abs(d[i] - d[j]) <= gap + 1e-9


def test_tau_multi_widens_the_tie_window(unit_square):
    # a point slightly off the diagonal: strict tie detection misses it,
    # a coarse tolerance treats the two near-equal feet as a tie
    x = (0.5, 0.498)
    strict = project(unit_square, x, tau_multi=1e-9)
    coarse = project(unit_square, x, tau_multi=0.05)
    assert strict.is_singleton
    assert not coarse.is_singleton


def test_default_tau_multi_scales_with_diameter(unit_square, unit_disk):
    assert default_tau_multi(unit_square) > 0.0
    big = Ball((0.0, 0.0), 100.0)
    assert default_tau_multi(big) > default_tau_multi(unit_disk)


def test_ball_centre_tie_agrees_with_the_detector():
    # one node lies 5e-10 from the centre: within the detector's 1e-9 x
    # diameter, so project must read it as the same continuum tie
    ball = Ball((0.0, 0.0), 1.0)
    grid = GridSpec(origin=(-1.5 + 5e-10, -1.5), spacing=0.25, dims=(13, 13))
    mask = detect_multiproj(ball, grid)
    pts, flags = grid.points(), mask.flags.reshape(-1)
    assert np.flatnonzero(flags).tolist() == [6 * 13 + 6]
    for i in np.flatnonzero(~mask.excluded.reshape(-1)):
        res = project(ball, pts[i], grid.spacing)
        assert res.is_singleton == (not flags[i])
    centre = project(ball, pts[6 * 13 + 6])
    assert not centre.is_singleton
    assert centre.spread == 2.0


def test_project_rejects_bad_input(unit_square, unit_disk, offset_square):
    shapes = [unit_square, unit_disk, Ellipse((1.0, 0.5)), Box((1.0, 0.5)),
              make_random_polytope(8, seed=2), offset_square,
              unit_disk.boundary_sample(0.1),
              make_random_polytope(12, seed=2, dim=3)]
    for shape in shapes:
        for dim in (1, 2, 3):
            if dim != shape.dim:
                with pytest.raises(ProjectionError):
                    project(shape, np.full(dim, 0.1))
        with pytest.raises(ProjectionError):
            project(shape, np.full((1, shape.dim), 0.1))
        # a tie window that is negative, NaN or infinite
        for tau in (-1.0, np.nan, np.inf):
            with pytest.raises(ProjectionError):
                project(shape, np.full(shape.dim, 0.3), tau_multi=tau)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_points_raise(bad, unit_disk, offset_square):
    """A NaN or infinite coordinate raises the entry point's error, on
    every family: project's ProjectionError, and detect_multiproj's
    DetectionError for a grid whose far nodes overflow to inf.  A grid
    whose origin is not finite raises GridError when it is built.  project
    used to answer a NaN distance with no feet as a singleton."""
    shapes = [Box((1.0, 1.0)), offset_square, unit_disk,
              Ellipse((1.0, 0.5)), unit_disk.boundary_sample(0.1),
              make_random_polytope(12, seed=2, dim=3)]
    for shape in shapes:
        with pytest.raises(ProjectionError):
            project(shape, np.r_[bad, np.zeros(shape.dim - 1)])
        with pytest.raises(GridError):
            GridSpec((bad,) + (0.0,) * (shape.dim - 1), 0.25,
                     (8,) * shape.dim)
        grid = GridSpec((0.0,) * shape.dim, 1e308, (8,) * shape.dim)
        with pytest.raises(DetectionError), np.errstate(over="ignore"):
            detect_multiproj(shape, grid)


def exact_shapes():
    """One shape of every exact family, in 2D and in 3D."""
    poly, poly_3d = make_random_polytope(16, 1), make_random_polytope(
        16, 1, dim=3)
    return [("polytope", poly), ("offset", OffsetBody(poly, 0.3)),
            ("box", Box((1.0, 0.5))), ("disk", Ball((0.1, -0.2), 1.0)),
            ("ellipse", Ellipse((1.0, 0.5))), ("polytope_3d", poly_3d),
            ("offset_3d", OffsetBody(poly_3d, 0.3)),
            ("box_3d", Box((1.0, 0.5, 0.75))),
            ("ball_3d", Ball((0.1, -0.2, 0.3), 1.0))]


@pytest.mark.parametrize("label,shape", exact_shapes(),
                         ids=[lbl for lbl, _ in exact_shapes()])
def test_projection_distance_is_the_field_value(label, shape):
    """project's distance is the distance field's value bit for bit, at
    about 1,600 nodes of a grid covering each exact shape."""
    grid = grid_covering(shape, 0.05 if shape.dim == 2 else 0.15)
    field = distance_field(shape, grid).values.reshape(-1)
    pick = np.arange(0, grid.n_nodes, max(1, grid.n_nodes // 1600))
    nodes = grid.points()[pick]
    assert np.array_equal([project(shape, x).distance for x in nodes],
                          field[pick])


def agreement_shapes():
    """The exact shapes and a closed sampling of the 16-facet polytope's
    0.3 offset."""
    offset = OffsetBody(make_random_polytope(16, 1), 0.3)
    return exact_shapes() + [("offset_sampled",
                              offset.boundary_sample(0.5 / 20))]


@pytest.mark.parametrize("label,shape", agreement_shapes(),
                         ids=[lbl for lbl, _ in agreement_shapes()])
def test_rows_functions_accept_zero_rows(label, shape):
    """Each family's rows function answers no points with empty rows, in
    full and without it."""
    pts = np.empty((0, shape.dim))
    rows, body, tau = projection._resolver(shape, pts)
    for full in (True, False):
        d_opt, count, feet, spread, _ = rows(body, pts, tau, full)
        assert d_opt.shape == spread.shape == (0,)
        if full:
            assert count.shape == (0,) and feet.shape == (0, shape.dim)


@pytest.mark.parametrize("label,shape", agreement_shapes(),
                         ids=[lbl for lbl, _ in agreement_shapes()])
def test_project_agrees_with_the_detector(label, shape):
    """On every node off the band (in 3D every flag and every seventh
    other node) of a grid covering the shape, with a node at the centre of
    its bounding box (a ball's one tie), project at the detector's tie
    window is a singleton exactly where the mask has no flag, and its
    distance is the node memo's bit for bit: both read one rows function
    per shape family."""
    h = 1.0 / 20 if shape.dim == 2 else 0.15
    cover = grid_covering(shape, h)
    centre = 0.5 * np.add(*shape.bbox())
    grid = GridSpec(origin=centre - np.ceil((centre - cover.origin) / h) * h,
                    spacing=h, dims=tuple(n + 1 for n in cover.dims))
    mask = detect_multiproj(shape, grid)
    assert mask.params["tau_multi"] == h and mask.n_flags > 0
    flags, dist = mask.flags.reshape(-1), _node_distance(shape, grid)
    nodes = grid.points()
    active = np.flatnonzero(~mask.excluded.reshape(-1))
    if shape.dim == 3:
        active = np.union1d(active[::7], np.flatnonzero(flags))
    for i in active:
        res = project(shape, nodes[i], h)
        assert res.is_singleton == (not flags[i])
        assert res.distance == dist[i]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(4, 32),
       rows=st.integers(1, 6), tol=st.sampled_from([None, 1e-9, 0.25]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matrix_spreads_match_the_first_come_loop(data, width, rows, tol,
                                                  seed):
    """_matrix_spreads keeps the same slots and spreads as the column by
    column first-come loop it replaced (oracles.matrix_spreads), bit for
    bit.  Each row holds 2 to width real points, padded by repeating its
    last one; a chain row steps 0.3 to 1.2 tol along a line, in order or
    shuffled, so whether a point is dropped hangs on which earlier points
    were kept."""
    rng = np.random.default_rng(seed)
    step = 0.25 if tol is None else tol
    pad = np.empty((rows, width, 2))
    cnt = np.empty((rows, 1), dtype=int)
    for i in range(rows):
        n = cnt[i, 0] = data.draw(st.integers(2, width))
        kind = data.draw(st.sampled_from(["chain", "shuffled", "random"]))
        if kind == "random":
            pts = rng.normal(size=(n, 2))
        else:
            line = rng.normal(size=2)
            line /= np.linalg.norm(line)
            pts = np.cumsum(rng.uniform(0.3, 1.2, n) * step)[:, None] * line
            if kind == "shuffled":
                pts = rng.permutation(pts)
        pad[i, :n], pad[i, n:] = pts, pts[-1]
    got = projection._matrix_spreads(pad, cnt, tol)
    want = oracles.matrix_spreads(pad, cnt, tol)
    assert (got[0] is None) == (want[0] is None)
    if want[0] is not None:
        assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(1, 6), min_size=1, max_size=12),
       dim=st.sampled_from([2, 3]),
       tol=st.sampled_from([None, 1e-9, 0.25]),
       dup=st.floats(0.0, 0.8), lattice=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_two_point_spreads_match_the_matrix_form(counts, dim, tol, dup,
                                                 lattice, seed):
    """Rows of two points take their spread in closed form; with that path
    swapped for the pair-matrix path, _spreads returns the same keep (type
    and entries) and spread, bit for bit.  Rows hold 1 to 6 points, some
    repeating an earlier point of their row exactly or within tol; on the
    lattice of quarters many pairs lie exactly tol = 0.25 apart."""
    count = np.array(counts + [2] * 8)
    rng = np.random.default_rng(seed)
    pts = (rng.integers(-2, 3, (count.sum(), dim)) / 4.0 if lattice
           else rng.normal(size=(count.sum(), dim)))
    first = np.cumsum(count) - count
    jitter = 0.0 if tol is None else 0.4 * tol / np.sqrt(dim)
    for start, n in zip(first, count):
        for j in range(1, n):
            if rng.random() < dup:
                src = start + rng.integers(0, j)
                pts[start + j] = pts[src] + rng.choice([0.0, jitter]) * \
                    rng.uniform(-1.0, 1.0, dim)
    fast = projection._spreads(pts, count, tol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_pair_spreads", projection._matrix_spreads)
        general = projection._spreads(pts, count, tol)
    assert type(fast[0]) is type(general[0])
    if not isinstance(fast[0], slice):
        assert np.array_equal(fast[0], general[0])
    assert fast[1].tobytes() == general[1].tobytes()


NO_CSGRAPH_SCRIPT = """
import sys
from sigma_eikonal.distance import grid_covering
from sigma_eikonal.geometry import OffsetBody, make_random_polytope
from sigma_eikonal.projection import project
from sigma_eikonal.singular import detect_multiproj

surface = OffsetBody(make_random_polytope(8, 3), 0.3).boundary_sample(0.05)
mask = detect_multiproj(surface, grid_covering(surface, 0.1))
assert mask.params["multi_run_rows"] > 0
assert project(surface, (0.0, 0.0)).nearest.shape[0] > 1
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse.csgraph")))
"""


def test_sampled_resolution_does_not_load_csgraph():
    """Sampled detection and projection link their candidate runs in the
    package (projection._components), so a fresh interpreter that runs
    both never imports scipy.sparse.csgraph."""
    src = Path(projection.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", NO_CSGRAPH_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
