"""End-to-end acceptance suite.

One test per criterion, so a ``pytest -v`` run prints one pass or fail
line for each.  Tolerances are pinned as module constants and must not be
loosened; a criterion that cannot be met on this implementation is left
to fail rather than weakened.  Each test also prints the measured margins
so a ``-rA`` run documents how much headroom the pass had.

The heavyweight studies run once per session through module-scoped
fixtures; criteria that share a driver share its report.
"""

import math

import numpy as np
import pytest

from sigma_eikonal.distance import grid_covering, signed_distance_field
from sigma_eikonal.eikonal import fast_march, problem_from_shape, residuals
from sigma_eikonal.experiments import (
    ExperimentConfig,
    run_counterexample,
    run_equivalence,
    run_lemma_gradient,
    run_offset_identity,
    run_typical_density,
)
from sigma_eikonal.geometry import Ball, Box, OffsetBody
from sigma_eikonal.innerball import inner_ball_profile, inner_ball_radius
from sigma_eikonal.singular import detect_multiproj

# pinned gates, shared by several criteria
IDENTITY_TOL = 1e-12        # offset identity deviation bound
GRAD_FACTOR = 10.0          # gradient mismatch bound, in grid steps
WIDE_SPREAD_MIN = 0.95      # flagged nodes whose feet spread widely
ERR_FACTOR = 2.0            # solver max error bound, in grid steps
RATE_MIN = 0.8              # observed convergence order floor
AWAY_R = 0.2                # fixed exclusion radius around the cone tip
RESID_FACTOR = 10.0         # residual bound and margin, in grid steps
BALL_TOL_FACTOR = 2.0       # inner ball agreement, in units of tau_ball
TREND_MAX_DROPS = 1         # allowed decreasing steps out of four
COVER_MIN_FINAL = 0.5       # band coverage floor at five terms


@pytest.fixture(scope="module")
def offset_report():
    return run_offset_identity(ExperimentConfig(quiet=True))


@pytest.fixture(scope="module")
def gradient_report():
    return run_lemma_gradient(ExperimentConfig(quiet=True))


@pytest.fixture(scope="module")
def density_report():
    return run_typical_density(ExperimentConfig(quiet=True))


@pytest.fixture(scope="module")
def equivalence_report():
    return run_equivalence(ExperimentConfig(quiet=True))


@pytest.fixture(scope="module")
def rough_report():
    return run_counterexample(ExperimentConfig(quiet=True))


def test_criterion_1_offset_identity(offset_report):
    """Interior distance to the offset boundary equals eps plus the
    distance to the base boundary, to near machine precision."""
    rep = offset_report
    devs = {k: v for k, v in rep.items()
            if k.endswith("_dev") and k != "max_dev"}
    print(f"criterion 1: max_dev={rep['max_dev']:.3e} "
          f"over {len(devs)} shape/eps pairs (bound {IDENTITY_TOL:.0e})")
    assert len(devs) == 8
    for key, dev in devs.items():
        assert dev <= IDENTITY_TOL, f"{key}: deviation {dev:.3e}"
    assert rep["max_dev"] <= IDENTITY_TOL


def test_criterion_2_flag_inclusion(offset_report):
    """Every flag of the base boundary lies within one grid step of a
    flag of the offset boundary, for every shape and eps."""
    rep = offset_report
    viols = {k: v for k, v in rep.items()
             if k.endswith("_violations") and k != "total_violations"}
    print(f"criterion 2: total_violations={rep['total_violations']} "
          f"over {len(viols)} shape/eps pairs (bound 0)")
    assert len(viols) == 8
    for key, n in viols.items():
        assert n == 0, f"{key}: {n} uncovered flags"
    assert rep["total_violations"] == 0


def test_criterion_3_gradient_formula(gradient_report):
    """Away from flags and the surface, the finite-difference gradient of
    the distance field matches the projection formula, and nearly all
    flagged nodes have widely spread nearest feet."""
    rep = gradient_report
    h = rep["h"]
    parts = []
    for label in ("disk", "square", "offset_square"):
        dev = rep[f"{label}_max_dev"]
        wide = rep[f"{label}_wide_spread_frac"]
        parts.append(f"{label}: dev={dev:.4f} wide={wide:.3f}")
        assert dev <= GRAD_FACTOR * h, f"{label}: gradient gap {dev:.4f}"
        assert wide >= WIDE_SPREAD_MIN, f"{label}: spread frac {wide:.3f}"
        assert rep[f"{label}_n_flags"] > 0
    print(f"criterion 3: h={h:g} bound={GRAD_FACTOR * h:.4f}; "
          + "; ".join(parts))
    assert rep["passed"]


def test_criterion_4_eikonal_convergence():
    """Marching from the unit circle stays within 2h of the exact
    distance on the whole domain at each step size, converges with
    observed order at least 0.8 away from the center where the distance
    function is singular, and leaves near-zero upwind residuals off the
    flag set.  The signed field of an offset square satisfies the same
    residual bound."""
    disk = Ball((0.0, 0.0), 1.0)
    steps = [1.0 / 32, 1.0 / 64, 1.0 / 128]
    full_errs, away_errs = [], []
    for h in steps:
        grid = grid_covering(disk, h)
        u = fast_march(problem_from_shape(disk, grid))
        pts = grid.points()
        exact = disk.boundary_distance(pts).reshape(grid.dims)
        err = np.abs(u.values - exact)
        finite = np.isfinite(u.values)
        full = float(err[finite].max())
        away = finite & (np.linalg.norm(pts, axis=1).reshape(grid.dims)
                         >= AWAY_R)
        full_errs.append(full)
        away_errs.append(float(err[away].max()))
        assert full <= ERR_FACTOR * h, f"h={h:g}: max error {full:.5f}"
        mask = detect_multiproj(disk, grid)
        rr = residuals(u, singular_mask=mask, margin=RESID_FACTOR * h)
        assert not rr.empty
        assert rr.max_abs <= RESID_FACTOR * h, \
            f"h={h:g}: marching residual {rr.max_abs:.3e}"
    # the max error sits at the cone tip at every h, where first order
    # schemes accumulate an extra log factor; the order is measured on
    # the fixed region at least AWAY_R from the tip
    rate = math.log(away_errs[0] / away_errs[-1]) \
        / math.log(steps[0] / steps[-1])
    print("criterion 4: full errs "
          + "/".join(f"{e:.5f}" for e in full_errs)
          + " (bounds " + "/".join(f"{ERR_FACTOR * h:.5f}" for h in steps)
          + f"); away errs " + "/".join(f"{e:.5f}" for e in away_errs)
          + f"; rate={rate:.3f} (floor {RATE_MIN})")
    assert rate >= RATE_MIN, f"observed order {rate:.3f}"

    square = Box((1.0, 1.0))
    body = OffsetBody(square, 0.5)
    h = steps[-1]
    grid = grid_covering(body, h)
    f = signed_distance_field(body, grid)
    mask = detect_multiproj(body, grid)
    rr = residuals(f, singular_mask=mask, margin=RESID_FACTOR * h)
    print(f"criterion 4: offset square signed residual {rr.max_abs:.4f} "
          f"on {rr.n_eligible} nodes (bound {RESID_FACTOR * h:.4f})")
    assert not rr.empty
    assert rr.max_abs <= RESID_FACTOR * h, \
        f"signed field residual {rr.max_abs:.4f}"


def _dense_radius_sweep(shape, a, nu, r_max, tau, res):
    """Largest radius on a dense grid whose tangent ball still fits.

    Scans every radius instead of bisecting, so it also checks that the
    fit predicate is monotone along the normal for these shapes.
    """
    a = np.asarray(a, dtype=float)
    nu = np.asarray(nu, dtype=float)
    rs = np.arange(0.0, r_max + res, res)
    centers = a[None, :] + rs[:, None] * nu[None, :]
    d = np.asarray(shape.boundary_distance(centers))
    ok = np.asarray(shape.contains(centers)) & (d >= rs - tau)
    return float(rs[ok].max()) if ok.any() else 0.0


def test_criterion_5_inner_ball_bisection():
    """Bisection radii match a dense radius sweep to within twice the
    fit slack, hit the exact values on the disk and the square edge, and
    never fall below eps minus the slack on an offset boundary."""
    square = Box((1.0, 1.0))
    offset = OffsetBody(square, 0.5)
    tau_sq = 1e-6 * square.diameter()
    tau_off = 1e-6 * offset.diameter()

    disk = Ball((0.0, 0.0), 1.0)
    rho = inner_ball_radius(disk, (1.0, 0.0), (-1.0, 0.0), r_max=1.0)
    assert rho == 1.0

    edge_dev = 0.0
    for y in (0.0, 0.3, -0.62, 0.9):
        rho = inner_ball_radius(square, (1.0, y), (-1.0, 0.0), r_max=1.2)
        dev = abs(rho - (1.0 - abs(y)))
        edge_dev = max(edge_dev, dev)
        assert dev <= BALL_TOL_FACTOR * tau_sq, \
            f"square edge y={y}: radius off by {dev:.3e}"

    c = 0.5 * math.sqrt(2.0)
    cases = [
        (square, (1.0, 0.3), (-1.0, 0.0), 1.2, tau_sq),
        (square, (1.0, 0.9), (-1.0, 0.0), 1.2, tau_sq),
        (offset, (1.0 + 0.5 * c, 1.0 + 0.5 * c), (-c, -c), 1.0, tau_off),
        (offset, (1.5, 0.0), (-1.0, 0.0), 2.0, tau_off),
    ]
    sweep_gap = 0.0
    for shape, a, nu, r_max, tau in cases:
        rho_b = inner_ball_radius(shape, a, nu, r_max=r_max)
        rho_d = _dense_radius_sweep(shape, a, nu, r_max, tau,
                                    res=0.5 * tau)
        gap = abs(rho_b - rho_d)
        sweep_gap = max(sweep_gap, gap)
        assert gap <= BALL_TOL_FACTOR * tau, \
            f"{a}: bisect {rho_b:.8f} vs sweep {rho_d:.8f}"

    prof = inner_ball_profile(offset, 0.1, r_max=1.0)
    floor = 0.5 - BALL_TOL_FACTOR * tau_off
    print(f"criterion 5: disk exact; square edge dev<={edge_dev:.2e} "
          f"(bound {BALL_TOL_FACTOR * tau_sq:.2e}); sweep gap<="
          f"{sweep_gap:.2e}; offset profile min={prof.min_radius:.6f} "
          f"(floor {floor:.6f})")
    assert prof.min_radius >= floor


def test_criterion_6_equivalence_suite(equivalence_report):
    """Flag-free room and the uniform inner ball verdict agree as a
    positive pair on the disk and two offset bodies and as a negative
    pair on the rough graph collar."""
    rep = equivalence_report
    detail = []
    for label in ("disk", "square_offset", "poly_offset"):
        detail.append(f"{label}: A={rep[f'{label}_A']} "
                      f"B={rep[f'{label}_B']}")
        assert rep[f"{label}_A"], f"{label}: no flag-free ball found"
        assert rep[f"{label}_B"], f"{label}: no passing boundary patch"
        assert rep[f"{label}_agree"]
    rough = (f"rough graph: A={rep['rough_graph_A']} "
             f"B={rep['rough_graph_B']} "
             f"witness={rep.get('rough_graph_witness', 'none')} "
             f"clearance={rep.get('rough_graph_clearance', 'n/a')}")
    print("criterion 6: " + "; ".join(detail) + "; " + rough)
    assert not rep["rough_graph_A"], \
        ("rough collar still holds a flag-free ball at "
         f"{rep.get('rough_graph_witness')} with clearance "
         f"{rep.get('rough_graph_clearance')}; expected the negative "
         "pair A=False, B=False")
    assert not rep["rough_graph_B"]
    assert rep["rough_graph_agree"]
    assert rep["passed"]


def test_criterion_7_coverage_trend(density_report):
    """Band coverage of the flag set grows with the facet count, with at
    most one decreasing step per seed."""
    rep = density_report
    detail = []
    for seed in (0, 1, 2):
        covs = rep[f"seed{seed}_coverages"]
        drops = rep[f"seed{seed}_decreasing_steps"]
        detail.append(f"seed{seed}: {covs} drops={drops}")
        assert drops <= TREND_MAX_DROPS, \
            f"seed {seed}: {drops} decreasing steps in {covs}"
    print(f"criterion 7: r={rep['r']:g}; " + "; ".join(detail))


def test_criterion_8_offset_polytope_ball(density_report):
    """On the offset of a 128-gon the dilated flag set contains a solid
    ball of radius at least 0.1 centered inside the base polytope, and
    the signed field still satisfies the equation off the flags."""
    rep = density_report
    h = rep["h"]
    print(f"criterion 8: coverage={rep['offset128_coverage']:.4f} "
          f"ball_radius={rep['offset128_ball_radius']:.4f} "
          f"center=({rep['offset128_ball_center']}) "
          f"in_base={rep['offset128_ball_in_base']} "
          f"resid={rep['offset128_resid_max']:.4f} "
          f"(bound {RESID_FACTOR * h:.4f})")
    assert rep["offset128_ball_radius"] >= 0.1
    assert rep["offset128_ball_in_base"]
    assert rep["offset128_resid_max"] <= RESID_FACTOR * h


def test_criterion_9_roughness_sweep(rough_report):
    """Adding profile terms makes the smallest sampled tangent ball
    radius collapse monotonically while flags fill the band around the
    curve, ending with at least half the band covered."""
    rep = rough_report
    rhos = [rep[f"m{m}_rho_min"] for m in range(1, 6)]
    covs = [rep[f"m{m}_coverage"] for m in range(1, 6)]
    print("criterion 9: rho " + "/".join(f"{r:.5f}" for r in rhos)
          + "; coverage " + "/".join(f"{c:.4f}" for c in covs))
    assert all(rhos[i + 1] < rhos[i] for i in range(4)), \
        f"radii not strictly decreasing: {rhos}"
    assert rep["rho_strictly_decreasing"]
    assert all(covs[i + 1] >= covs[i] for i in range(4)), \
        f"coverage not non-decreasing: {covs}"
    assert rep["coverage_non_decreasing"]
    assert covs[-1] >= COVER_MIN_FINAL
    assert rep["passed"]
