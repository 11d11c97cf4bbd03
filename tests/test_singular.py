"""Multiplicity detection, mask algebra, and coverage statistics."""

import hashlib

import numpy as np
import pytest

from sigma_eikonal.distance import (
    GridSpec,
    ScalarField,
    _node_distance,
    distance_field,
    grid_covering,
)
from sigma_eikonal.geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GeometryError,
    GraphHypersurface,
    OffsetBody,
    SampledSurface,
    make_random_polytope,
)
from sigma_eikonal.singular import (
    DetectionError,
    SingularMask,
    coverage_density,
    detect_footjump,
    detect_gradjump,
    detect_multiproj,
    inclusion_violations,
    mask_agreement,
)

# Area fraction of [-1,1]^2 within 0.1 of its two diagonals, from a dense
# 4001^2 scan of the analytic tube (independent of any detector).
DIAGONAL_TUBE_FRACTION = 0.26249


def dist_to_diagonals(pts):
    return np.minimum(np.abs(pts[:, 0] - pts[:, 1]),
                      np.abs(pts[:, 0] + pts[:, 1])) / np.sqrt(2.0)


def test_ellipse_flags_lie_on_its_medial_segment():
    """The singular set of the ellipse with semi-axes (1, 0.5) is the
    major-axis segment |x| <= (a^2 - b^2) / a = 0.75."""
    h = 1.0 / 32
    ellipse = Ellipse((1.0, 0.5))
    mask = detect_multiproj(ellipse, grid_covering(ellipse, h))
    fp = mask.flagged_points()
    assert fp.shape[0] >= 1
    off = np.hypot(np.maximum(np.abs(fp[:, 0]) - 0.75, 0.0), fp[:, 1])
    assert off.max() <= 0.5 * h


def test_multiproj_rejects_a_negative_tie_window(unit_square):
    """A negative, NaN or infinite tie window raises; a NaN one used to
    flag nothing."""
    poly = make_random_polytope(16, 1)
    for shape, h in ((unit_square, 0.25), (poly, 1.0 / 16)):
        for tau in (-1e-3, np.nan, np.inf):
            with pytest.raises(DetectionError):
                detect_multiproj(shape, grid_covering(shape, h),
                                 tau_multi=tau)


def test_disk_flags_only_the_center(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 64)
    m = detect_multiproj(unit_disk, g)
    assert m.n_flags >= 1
    fp = m.flagged_points()
    assert np.linalg.norm(fp, axis=1).max() <= 1e-9


def test_square_flags_hug_the_diagonals(unit_square):
    h = 1.0 / 64
    g = grid_covering(unit_square, h)
    m = detect_multiproj(unit_square, g)
    fp = m.flagged_points()
    assert m.n_flags > 100
    # every flag lies within one node of a diagonal and inside the square
    assert dist_to_diagonals(fp).max() <= h / np.sqrt(2.0) + 1e-9
    assert np.abs(fp).max() <= 1.0
    # and the diagonals are covered: interior diagonal nodes away from
    # the excluded boundary band all have a flag within one cell diagonal
    pts = g.points()
    on_diag = (dist_to_diagonals(pts) <= 1e-9) \
        & unit_square.contains(pts) \
        & (unit_square.boundary_distance(pts) >= 4 * h)
    d2f = m.distance_to_flags().reshape(-1)
    assert d2f[on_diag].max() <= h * np.sqrt(2.0)


def test_convex_exterior_is_clean(tilted_polytope):
    g = grid_covering(tilted_polytope, 1.0 / 64, margin=0.5)
    m = detect_multiproj(tilted_polytope, g)
    fp = m.flagged_points()
    assert m.n_flags > 0
    assert np.all(tilted_polytope.contains(fp))


def test_flags_inside_offset_body_cover_base_diagonals(offset_square):
    h = 1.0 / 64
    g = grid_covering(offset_square, h)
    m = detect_multiproj(offset_square, g)
    fp = m.flagged_points()
    assert np.all(offset_square.contains(fp))
    assert dist_to_diagonals(fp).max() <= h / np.sqrt(2.0) + 1e-9
    # ties live inside the base square only: past the corners the nearest
    # arc point is unique
    assert np.abs(fp).max() <= 1.0 + 1e-9


def test_square_flags_inside_offset_dilation(unit_square, offset_square):
    h = 1.0 / 64
    g = grid_covering(offset_square, h)
    inner = detect_multiproj(unit_square, g)
    outer = detect_multiproj(offset_square, g)
    count, _ = inclusion_violations(inner, outer, h)
    assert count == 0


def test_gradjump_is_quiet_on_a_smooth_slope():
    g = GridSpec((0.0, 0.0), 0.1, (16, 16))
    plane = g.points()[:, 0].reshape(g.dims) + 2.0
    fld = ScalarField(g, plane, kind="eikonal_solution")
    m = detect_gradjump(fld)
    assert m.n_flags == 0


def test_gradjump_near_source_band_hides_a_point_cone_tip():
    # for a point source the kink coincides with the surface itself, so
    # the value-based exclusion band (u <= 2h) swallows it: no flags, but
    # the tip neighborhood is reported as excluded rather than clean
    h = 1.0 / 32
    n = 65
    g = GridSpec((-1.0, -1.0), h, (n, n))
    r = np.linalg.norm(g.points(), axis=1).reshape(g.dims)
    fld = ScalarField(g, r, kind="eikonal_solution")
    m = detect_gradjump(fld)
    assert m.n_flags == 0
    tip = g.nearest_node((0.0, 0.0))
    assert m.excluded[tip]


def test_gradjump_misses_kinks_that_sit_exactly_on_nodes(unit_square):
    # the square's diagonals pass through grid nodes, where one-sided
    # gradients vanish on one side; only the center shows a genuine
    # multi-axis disagreement
    g = grid_covering(unit_square, 1.0 / 64)
    fld = distance_field(unit_square, g)
    m = detect_gradjump(fld)
    assert m.n_flags == 1
    assert np.allclose(m.flagged_points()[0], (0.0, 0.0), atol=1e-12)


def test_gradjump_agrees_with_multiproj_on_the_disk(unit_disk):
    h = 1.0 / 64
    g = grid_covering(unit_disk, h)
    a = detect_multiproj(unit_disk, g)
    b = detect_gradjump(distance_field(unit_disk, g))
    frac, unmatched = mask_agreement(a, b, h * np.sqrt(2.0))
    assert unmatched == 0
    assert frac == 0.0


def test_gradjump_flags_lie_inside_multiproj_dilation(tilted_polytope):
    h = 1.0 / 64
    g = grid_covering(tilted_polytope, h)
    mp = detect_multiproj(tilted_polytope, g)
    gj = detect_gradjump(distance_field(tilted_polytope, g))
    count, _ = inclusion_violations(gj, mp, h * np.sqrt(2.0))
    assert gj.n_flags > 100
    assert count == 0


def test_gradjump_rejects_wrong_field_kind(unit_square):
    g = grid_covering(unit_square, 1.0 / 32)
    from sigma_eikonal.distance import signed_distance_field
    fld = signed_distance_field(unit_square, g)
    with pytest.raises(DetectionError):
        detect_gradjump(fld)


# a grid with a node on the origin and on both diagonals of [-1, 1]^2
CENTRED_GRID = GridSpec(origin=(-1.25, -1.25), spacing=1.0 / 32,
                        dims=(81, 81))


def test_footjump_on_a_sampled_circle_flags_only_the_center(unit_disk):
    mask = detect_footjump(unit_disk.boundary_sample(0.002), CENTRED_GRID)
    assert mask.n_flags == 1
    assert np.allclose(mask.flagged_points(), [[0.0, 0.0]])
    assert mask.params["bisected_edges"] > 0


def test_footjump_on_a_sampled_square_flags_its_diagonals(unit_square):
    h = CENTRED_GRID.spacing
    mask = detect_footjump(unit_square.boundary_sample(0.002), CENTRED_GRID)
    pts = mask.flagged_points()
    assert np.all(dist_to_diagonals(pts) <= 1e-12)
    assert np.all(np.abs(pts).max(axis=1) < 1.0)   # convex exterior is clean
    # every classified diagonal node inside the square carries a flag
    nodes = CENTRED_GRID.points()
    diag = (dist_to_diagonals(nodes) <= 1e-12) \
        & (np.abs(nodes).max(axis=1) < 1.0 - 3.0 * h)
    classified = ~mask.excluded.reshape(-1)
    assert (diag & classified).sum() >= 50
    assert mask.flags.reshape(-1)[diag & classified].all()


def test_footjump_rejects_bad_input(unit_square):
    surf = unit_square.boundary_sample(0.01)
    with pytest.raises(DetectionError):
        detect_footjump(unit_square, CENTRED_GRID)
    with pytest.raises(DetectionError):
        detect_footjump(surf, CENTRED_GRID, region=np.ones((3, 3), bool))


def test_coverage_of_single_center_flag_matches_area_ratio(unit_disk):
    h = 1.0 / 64
    g = grid_covering(unit_disk, h)
    m = detect_multiproj(unit_disk, g)   # exactly the center node
    rep = coverage_density(m, unit_disk, 0.1)
    assert rep.covered_fraction == pytest.approx(0.01, abs=0.003)
    assert rep.ball_radius >= 0.1 - 2 * h
    assert np.linalg.norm(rep.ball_center) <= 2 * h


def test_coverage_of_square_diagonals_matches_tube_area(unit_square):
    g = grid_covering(unit_square, 1.0 / 128)
    m = detect_multiproj(unit_square, g)
    rep = coverage_density(m, Box((1.0, 1.0)), 0.1)
    # the flag band is about one node wide, which fattens the analytic
    # tube by at most one step
    assert rep.covered_fraction == pytest.approx(DIAGONAL_TUBE_FRACTION,
                                                 abs=0.03)


def test_coverage_of_a_full_mask_is_one(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    m = detect_multiproj(unit_disk, g)
    full = SingularMask(grid=g, flags=np.ones(g.dims, dtype=bool),
                        excluded=np.zeros(g.dims, dtype=bool),
                        detector="multiproj", params={})
    rep = coverage_density(full, unit_disk, 0.1)
    assert rep.covered_fraction == 1.0
    assert rep.ball_radius >= 0.5


def test_coverage_rejects_sub_resolution_radius(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    m = detect_multiproj(unit_disk, g)
    with pytest.raises(DetectionError):
        coverage_density(m, unit_disk, 0.01)


def test_coverage_rejects_empty_region(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    m = detect_multiproj(unit_disk, g)
    far = Ball((50.0, 50.0), 0.5)
    with pytest.raises(DetectionError):
        coverage_density(m, far, 0.1)


def test_coverage_rejects_a_region_array_off_the_grid(unit_disk):
    """A region array must have the grid's dims: a short one and the right
    node count in the wrong shape both raise DetectionError."""
    g = grid_covering(unit_disk, 1.0 / 32)
    m = detect_multiproj(unit_disk, g)
    for region in (np.ones(5, dtype=bool), np.ones(g.n_nodes, dtype=bool)):
        with pytest.raises(DetectionError, match="grid"):
            coverage_density(m, region, 0.1)


def test_mask_round_trip(tmp_path, unit_square):
    g = grid_covering(unit_square, 1.0 / 32)
    m = detect_multiproj(unit_square, g)
    path = tmp_path / "square.mask"
    m.save(path)
    back = SingularMask.load(path)
    assert back.grid == m.grid
    assert back.detector == m.detector
    assert np.array_equal(back.flags, m.flags)
    assert np.array_equal(back.excluded, m.excluded)
    assert back.params == m.params


def drop_dims_line(raw):
    head, _, codes = raw.partition(b"end\n")
    lines = [ln for ln in head.split(b"\n") if not ln.startswith(b"dims=")]
    return b"\n".join(lines) + b"end\n" + codes


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:-10],
    drop_dims_line,
    lambda raw: raw[:-1] + b"\x07",
], ids=["truncated_payload", "missing_dims", "code_outside_0_1_2"])
def test_damaged_mask_file_raises_detection_error(tmp_path, unit_disk,
                                                  damage):
    grid = GridSpec((-1.75, -1.75), 0.25, (15, 15))
    path = tmp_path / "disk.mask"
    detect_multiproj(unit_disk, grid).save(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(DetectionError):
        SingularMask.load(path)


def test_sampled_mask_counts_survive_round_trip(tmp_path, unit_square):
    g = grid_covering(unit_square, 1.0 / 32)
    m = detect_multiproj(unit_square.boundary_sample(1.0 / 64), g)
    # nodes near the diagonals reach two sides of the square
    assert 0 < m.params["multi_run_rows"] <= m.params["candidate_rows"]
    assert m.params["candidate_rows"] <= int((~m.excluded).sum())
    path = tmp_path / "sampled.mask"
    m.save(path)
    back = SingularMask.load(path)
    assert back.params == m.params
    assert back.params["candidate_rows"] == m.params["candidate_rows"]
    assert back.params["multi_run_rows"] == m.params["multi_run_rows"]
    exact = detect_multiproj(unit_square, g)
    assert set(exact.params) == {"tau_multi", "band_factor"}


# the file detect_multiproj(OffsetBody(make_random_polytope(16, 1), 0.3))
# saves at h = 1/20: pins the mask file format, which holds no distance
OFFSET16_MASK_SHA256 = \
    "614f8f4ab103b939cf4f68deb9e296fd6d9a9781be564cf8393db43ad294d52b"


@pytest.mark.parametrize("label", ["polytope", "offset", "box", "disk",
                                   "ellipse", "sampled", "polytope3d",
                                   "box3d"])
def test_mask_distance_is_the_distance_field(label, unit_square,
                                             monkeypatch):
    """After detect_multiproj the (shape, grid) node memo holds the
    boundary distance that set the mask's band, bit for bit a fresh
    evaluation, so a distance field on that grid evaluates no kernel."""
    h = 1.0 / 20
    poly = make_random_polytope(16, 1)
    shape = {
        "polytope": poly,
        "offset": OffsetBody(poly, 0.3),
        "box": Box((1.0, 0.5)),
        "disk": Ball((0.0, 0.0), 1.0),
        "ellipse": Ellipse((1.0, 0.5)),
        "sampled": unit_square.boundary_sample(h / 2),
        "polytope3d": make_random_polytope(12, 1, dim=3),
        "box3d": Box((1.0, 0.5, 0.75)),
    }[label]
    if shape.dim == 3:
        h = 0.25
    grid = grid_covering(shape, h)
    mask = detect_multiproj(shape, grid)
    calls = []
    for cls in (ConvexPolytope, OffsetBody, Box, Ball, Ellipse,
                SampledSurface):
        def spy(self, points, _kernel=cls.boundary_distance):
            calls.append(type(self).__name__)
            return _kernel(self, points)
        monkeypatch.setattr(cls, "boundary_distance", spy)
    fld = distance_field(shape, grid)
    assert calls == []
    monkeypatch.undo()
    d = _node_distance(shape, grid)
    assert not d.flags.writeable
    assert np.array_equal(d, shape.boundary_distance(grid.points()))
    assert np.array_equal(fld.values.reshape(-1), d)
    assert np.array_equal(mask.excluded.reshape(-1),
                          d <= mask.params["band_factor"] * h)


def test_mask_distance_is_none_on_load_and_a_graph_raises(tmp_path):
    """A mask holds flags and band only, fresh or loaded: the distance
    lives in the node memo."""
    graph = GraphHypersurface(0.5, 4, 2, window=(0.5, 1.5))
    with pytest.raises(GeometryError):
        detect_multiproj(graph, grid_covering(graph, 1.0 / 16))
    body = OffsetBody(make_random_polytope(16, 1), 0.3)
    mask = detect_multiproj(body, grid_covering(body, 1.0 / 20))
    path = tmp_path / "offset.mask"
    mask.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == OFFSET16_MASK_SHA256
    back = SingularMask.load(path)
    assert getattr(mask, "distance", None) is None
    assert getattr(back, "distance", None) is None
    assert np.array_equal(back.flags, mask.flags)
    assert np.array_equal(back.excluded, mask.excluded)


def test_masks_on_different_grids_are_rejected(unit_square):
    a = detect_multiproj(unit_square, grid_covering(unit_square, 1.0 / 32))
    b = detect_multiproj(unit_square, grid_covering(unit_square, 1.0 / 16))
    with pytest.raises(DetectionError):
        mask_agreement(a, b, 0.05)
