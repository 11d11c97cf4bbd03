"""Inner tangent balls: bisection radii, patch verdicts, normal map
injectivity, and the interior-room equivalence check."""

import numpy as np
import pytest

from sigma_eikonal.distance import grid_covering
from sigma_eikonal.geometry import GraphHypersurface, SampledSurface
from sigma_eikonal.innerball import (
    InnerBallError,
    inner_ball_profile,
    inner_ball_radius,
    normal_map_injectivity,
    theorem_equivalence_check,
    uniform_condition_report,
)

TAU_DISK = 1e-6 * 2.0     # default slack for the unit disk (1e-6 * diameter)


def largest_ball_by_membership_scan(contains, a, nu, r_max, steps=2000):
    """Independent oracle: scan radii and test the ball via 720 rim points
    plus the center, using only the membership predicate."""
    ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    rim_dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    best = 0.0
    for r in np.linspace(0.0, r_max, steps + 1)[1:]:
        c = a + r * nu
        rim = c + (r - 1e-9) * rim_dirs
        if contains(np.vstack([rim, c[None, :]])).all():
            best = r
    return best


def test_disk_radius_is_exactly_one(unit_disk):
    rho = inner_ball_radius(unit_disk, (1.0, 0.0), (-1.0, 0.0), r_max=1.0)
    assert rho == 1.0           # cap fits, no bisection needed
    rho = inner_ball_radius(unit_disk, (0.0, 1.0), (0.0, -1.0), r_max=2.0)
    assert rho == pytest.approx(1.0, abs=2 * TAU_DISK)


def test_square_edge_radius_matches_one_minus_y(unit_square):
    for y in (0.0, 0.3, -0.62, 0.9):
        rho = inner_ball_radius(unit_square, (1.0, y), (-1.0, 0.0),
                                r_max=2.0)
        assert rho == pytest.approx(1.0 - abs(y), abs=1e-5)


def test_square_radius_matches_membership_scan(unit_square):
    a = np.array([1.0, 0.45])
    nu = np.array([-1.0, 0.0])
    oracle = largest_ball_by_membership_scan(unit_square.contains, a, nu, 2.0)
    rho = inner_ball_radius(unit_square, a, nu, r_max=2.0)
    assert rho == pytest.approx(oracle, abs=2.0 / 2000 + 1e-5)


def test_offset_arc_midpoint_radius_is_epsilon(offset_square):
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    a = np.array([1.0, 1.0]) + 0.5 * u
    rho = inner_ball_radius(offset_square, a, -u, r_max=2.0)
    # past the arc center the fit margin shrinks at rate 1 - 1/sqrt(2),
    # so the distance slack tau_ball is amplified by about 3.4x
    assert rho == pytest.approx(0.5, abs=5e-5)


def test_offset_edge_midpoint_radius_reaches_far_side(offset_square):
    rho = inner_ball_radius(offset_square, (1.5, 0.0), (-1.0, 0.0),
                            r_max=2.0)
    assert rho == pytest.approx(1.5, abs=1e-5)


def test_offset_radius_matches_membership_scan(offset_square):
    a = np.array([1.5, 0.77])
    nu = np.array([-1.0, 0.0])
    oracle = largest_ball_by_membership_scan(offset_square.contains, a, nu,
                                             2.0)
    rho = inner_ball_radius(offset_square, a, nu, r_max=2.0)
    assert rho == pytest.approx(oracle, abs=2.0 / 2000 + 1e-5)


def test_offset_profile_floor_is_epsilon(offset_square):
    prof = inner_ball_profile(offset_square, spacing=0.1, r_max=1.0)
    assert prof.min_radius >= 0.5 - 2 * prof.tau_ball
    assert prof.radii.max() <= 1.0


def test_profile_independent_of_cap_below_it(offset_square):
    lo = inner_ball_profile(offset_square, spacing=0.2, r_max=0.6)
    hi = inner_ball_profile(offset_square, spacing=0.2, r_max=1.2)
    both_low = (lo.radii < 0.6 - 1e-3) & (hi.radii < 0.6 - 1e-3)
    assert both_low.any()
    assert np.abs(lo.radii[both_low] - hi.radii[both_low]).max() <= 1e-5
    capped = lo.radii >= 0.6 - 1e-9
    assert capped.any()


def test_profile_csv(tmp_path, unit_disk):
    prof = inner_ball_profile(unit_disk, spacing=0.2, r_max=1.0)
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(prof.radii) + 1
    assert np.all(prof.radii == pytest.approx(1.0, abs=1e-5))


def test_sampled_disk_radii_are_one(unit_disk):
    # the tangency sample lies exactly r from the centre, so the default
    # slack must cover the half-spacing correction or no ball fits
    spacing = 0.01
    surf = unit_disk.boundary_sample(spacing)
    prof = inner_ball_profile(surf, spacing, r_max=1.5)
    assert np.abs(prof.radii - 1.0).max() <= 0.1 * spacing
    rho = inner_ball_radius(surf, surf.points[0], surf.normals[0], r_max=1.5)
    assert rho == pytest.approx(1.0, abs=0.1 * spacing)


def test_sampled_cosine_valley_radius_is_its_curvature_radius():
    # cos(pi x) bends most at its valley x = 1, with curvature pi^2
    spacing = 0.01
    graph = GraphHypersurface(0.5, 4, 1, window=(0.5, 1.5))
    surf = graph.boundary_sample(spacing, pad=0.3)
    prof = inner_ball_profile(surf, spacing, r_max=0.5)
    assert prof.min_radius == pytest.approx(1.0 / np.pi ** 2,
                                            abs=0.1 * spacing)
    assert prof.points[np.argmin(prof.radii), 0] == pytest.approx(
        1.0, abs=spacing)


def test_inner_ball_input_validation(unit_disk):
    with pytest.raises(InnerBallError):
        inner_ball_radius(unit_disk, (0.5, 0.0), (-1.0, 0.0), r_max=1.0)
    with pytest.raises(InnerBallError):
        inner_ball_radius(unit_disk, (1.0, 0.0), (-2.0, 0.0), r_max=1.0)
    with pytest.raises(InnerBallError):
        inner_ball_radius(unit_disk, (1.0, 0.0), (-1.0, 0.0), r_max=0.0)


def test_square_corners_break_the_uniform_condition(unit_square):
    rep = uniform_condition_report(unit_square, spacing=0.05, rho_min=0.05)
    assert not rep.overall
    assert any(not p.ok for p in rep.patches)
    assert rep.profile.min_radius < 0.05
    assert any("fail" in line for line in rep.summary_lines())


def test_offset_square_passes_the_uniform_condition(offset_square):
    rep = uniform_condition_report(offset_square, spacing=0.05, rho_min=0.05,
                                   r_max=1.0)
    assert rep.overall
    assert all(p.ok for p in rep.patches)
    assert min(p.inf_rho for p in rep.patches) >= 0.5 - 1e-3


def test_uniform_condition_default_cap_is_four_rho_min(offset_square):
    rep = uniform_condition_report(offset_square, spacing=0.1, rho_min=0.05)
    assert rep.overall
    assert rep.profile.r_max == pytest.approx(0.2)
    assert rep.profile.radii.max() <= 0.2


def test_uniform_condition_validation(unit_disk):
    with pytest.raises(InnerBallError):
        uniform_condition_report(unit_disk, spacing=0.1, rho_min=0.0)
    with pytest.raises(InnerBallError):
        uniform_condition_report(unit_disk, spacing=0.1, rho_min=0.5,
                                 r_max=0.2)


def test_normal_map_injectivity_on_the_circle(unit_disk):
    surf = unit_disk.boundary_sample(0.02)
    rep = normal_map_injectivity(surf, [0.5, 1.0])
    by_t = {s.t: s for s in rep.samples}
    assert by_t[0.5].injective
    assert not by_t[1.0].injective       # everything focuses at the center
    assert by_t[1.0].n_collisions > 100
    assert not rep.all_injective


def test_normal_map_cap_skips_untestable_radii(unit_disk):
    surf = unit_disk.boundary_sample(0.02)
    rep = normal_map_injectivity(surf, [0.5, 0.95], rho_cap=0.9)
    by_t = {s.t: s for s in rep.samples}
    assert not by_t[0.5].capped
    assert by_t[0.95].capped
    assert rep.all_injective             # capped samples do not count


def test_normal_map_requires_sampled_surface(unit_disk):
    with pytest.raises(InnerBallError):
        normal_map_injectivity(unit_disk, [0.5])


def test_equivalence_positive_on_the_disk(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    rep = theorem_equivalence_check(unit_disk, g, r_free=0.1)
    assert rep.condition_a
    assert rep.condition_b
    assert rep.agree
    assert rep.witness is not None
    assert rep.witness_clearance >= 0.1
    d = rep.as_dict()
    assert d["condition_a"] and d["condition_b"]


def test_equivalence_rejects_sub_resolution_ball(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    with pytest.raises(InnerBallError):
        theorem_equivalence_check(unit_disk, g, r_free=1.0 / 32)


def test_profile_rejects_a_probe_sample_off_the_measured_boundary(unit_disk):
    surf = unit_disk.boundary_sample(0.1)
    pts = surf.points.copy()
    pts[3] += 0.01 * surf.normals[3]
    moved = SampledSurface(pts, surf.normals, surf.spacing)
    with pytest.raises(InnerBallError, match="not on the boundary"):
        inner_ball_profile(moved, 0.1, r_max=1.0, measured=unit_disk)


def test_profile_rejects_nonpositive_r_max(unit_disk):
    with pytest.raises(InnerBallError, match="r_max"):
        inner_ball_profile(unit_disk, 0.1, r_max=0.0)
