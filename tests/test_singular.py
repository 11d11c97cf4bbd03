"""Multiplicity detection, mask algebra, and coverage statistics."""

import numpy as np
import pytest

from sigma_eikonal.distance import (
    GridSpec,
    ScalarField,
    distance_field,
    grid_covering,
)
from sigma_eikonal.geometry import Ball, Box
from sigma_eikonal.singular import (
    DetectionError,
    SingularMask,
    coverage_density,
    detect_footjump,
    detect_gradjump,
    detect_multiproj,
    inclusion_violations,
    mask_agreement,
    write_density_csv,
)

# Area fraction of [-1,1]^2 within 0.1 of its two diagonals, from a dense
# 4001^2 scan of the analytic tube (independent of any detector).
DIAGONAL_TUBE_FRACTION = 0.26249


def dist_to_diagonals(pts):
    return np.minimum(np.abs(pts[:, 0] - pts[:, 1]),
                      np.abs(pts[:, 0] + pts[:, 1])) / np.sqrt(2.0)


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
    assert np.all(tilted_polytope.contains(fp, tol=1e-9))


def test_flags_inside_offset_body_cover_base_diagonals(offset_square):
    h = 1.0 / 64
    g = grid_covering(offset_square, h)
    m = detect_multiproj(offset_square, g)
    fp = m.flagged_points()
    assert np.all(offset_square.contains(fp, tol=1e-9))
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


def test_masks_on_different_grids_are_rejected(unit_square):
    a = detect_multiproj(unit_square, grid_covering(unit_square, 1.0 / 32))
    b = detect_multiproj(unit_square, grid_covering(unit_square, 1.0 / 16))
    with pytest.raises(DetectionError):
        mask_agreement(a, b, 0.05)


def test_density_csv(tmp_path, unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    m = detect_multiproj(unit_disk, g)
    reps = [coverage_density(m, unit_disk, r) for r in (0.1, 0.2)]
    path = tmp_path / "density.csv"
    write_density_csv(reps, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("region,")
    assert len(lines) == 3
