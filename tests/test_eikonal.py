"""Fast marching solver: exact cones, seeded fronts, residuals."""

import numpy as np
import pytest

from sigma_eikonal.distance import (
    GridError,
    GridSpec,
    distance_field,
    grid_covering,
)
from sigma_eikonal.eikonal import (
    EikonalError,
    EikonalProblem,
    fast_march,
    problem_from_shape,
    residuals,
    upwind_residual,
    write_residual_report,
)
from sigma_eikonal.geometry import (
    Ball,
    Box,
    Ellipse,
    OffsetBody,
    make_random_polytope,
)
from sigma_eikonal.singular import detect_multiproj


def center_seed_grid(h=1.0 / 32):
    n = int(round(2.0 / h)) + 1
    g = GridSpec((-1.0, -1.0), h, (n, n))
    center = (n // 2, n // 2)
    return g, center


def test_point_source_cone_error_bound():
    """March from a single zero seed: the solution approximates |x| with
    error at most 2h(1 + |x|) over the whole grid."""
    g, center = center_seed_grid(h=1.0 / 32)
    u = fast_march(EikonalProblem(g, [(center, 0.0)]))
    r = np.linalg.norm(g.points(), axis=1).reshape(g.dims)
    err = np.abs(u.values - r)
    assert np.all(err <= 2.0 * g.spacing * (1.0 + r))
    assert u.meta["unreachable"] == 0


def exact_2d_families():
    poly = make_random_polytope(16, 1)
    return [("disk", Ball((0.0, 0.0), 1.0)), ("poly16", poly),
            ("poly16_e0.3", OffsetBody(poly, 0.3)),
            ("ellipse", Ellipse((1.0, 0.5))), ("box", Box((1.0, 1.0)))]


@pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64], ids=["1/32", "1/64"])
@pytest.mark.parametrize("label,shape", exact_2d_families(),
                         ids=[lbl for lbl, _ in exact_2d_families()])
def test_march_is_within_two_steps_of_the_exact_distance(label, shape, h):
    """On every exact 2D family the march from the shape's seeds stays
    within 2h of the exact distance field at every node.  The bound was
    fixed before measuring; the largest |u - d_K| / h read at h = 1/32
    and 1/64: disk 0.88 / 1.04, poly16 0.72 / 0.80, its 0.3 offset
    0.75 / 0.82, ellipse 0.35 / 0.40 and box 0.34 / 0.34."""
    grid = grid_covering(shape, h)
    u = fast_march(problem_from_shape(shape, grid))
    err = np.abs(u.values - distance_field(shape, grid).values)
    assert err.max() <= 2.0 * h


def test_two_parallel_lines_meet_at_midline():
    h = 1.0 / 32

    def two_lines(p):
        return np.minimum(np.abs(p[:, 1] - 1.0), np.abs(p[:, 1] + 1.0))

    g = GridSpec((-1.0, -1.5), h, (65, 97))

    class Lines:
        boundary_distance = staticmethod(two_lines)

    u = fast_march(problem_from_shape(Lines(), g))
    pts = g.points()
    mid = np.isclose(pts[:, 1], 0.0)
    vals = u.values.reshape(-1)
    # axis-aligned fronts arrive exactly; the midline is the far point
    assert np.abs(vals[mid] - 1.0).max() <= 1e-12
    assert vals.max() == pytest.approx(1.0, abs=1e-12)
    assert pts[np.argmax(vals)][1] == pytest.approx(0.0, abs=h / 2)


def test_circle_solution_at_center(unit_disk):
    h = 1.0 / 64
    g = grid_covering(unit_disk, h)
    u = fast_march(problem_from_shape(unit_disk, g))
    center = g.nearest_node((0.0, 0.0))
    assert abs(u.values[center] - 1.0) <= 2.0 * h


def test_fast_march_deterministic(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    prob = problem_from_shape(unit_disk, g)
    a = fast_march(prob)
    b = fast_march(prob)
    assert np.array_equal(a.values, b.values)


def test_solution_stays_below_seed_values(unit_disk):
    # a seed is an exact distance and therefore an upper bound: the march
    # may relax it downward through neighbors but never raise it
    g = grid_covering(unit_disk, 1.0 / 32)
    prob = problem_from_shape(unit_disk, g)
    u = fast_march(prob)
    assert np.isfinite(u.values).all()
    assert u.values.min() >= 0.0
    for idx, val in prob.seeds:
        assert u.values[idx] <= val + 1e-12


def test_problem_validation():
    g = GridSpec((0.0, 0.0), 0.1, (16, 16))
    with pytest.raises(EikonalError, match="at least one seed"):
        EikonalProblem(g, [])
    with pytest.raises(EikonalError,
                       match=r"seed index \(20, 0\) is outside the grid"):
        EikonalProblem(g, [((3, 3), 0.0), ((20, 0), 0.0)])
    with pytest.raises(EikonalError, match=r"seed value 1.0 outside"):
        EikonalProblem(g, [((2, 2), 1.0)])           # value above h*sqrt(2)
    with pytest.raises(EikonalError,
                       match=r"seed index \(2, 2, 2\) has wrong dimension"):
        EikonalProblem(g, [((2, 2, 2), 0.0)])


def test_problem_from_shape_requires_nearby_nodes(unit_disk):
    tiny = GridSpec((5.0, 5.0), 0.01, (8, 8))        # nowhere near the circle
    with pytest.raises(EikonalError):
        problem_from_shape(unit_disk, tiny)


def test_exact_square_field_has_zero_residual_off_diagonals(unit_square):
    g = grid_covering(unit_square, 1.0 / 32)
    fld = distance_field(unit_square, g)
    mask = detect_multiproj(unit_square, g)
    rep = residuals(fld, singular_mask=mask)
    # the field is piecewise linear between the kinks: upwind gradients
    # away from boundary, flags, and rim are exact
    assert rep.n_eligible > 0
    assert rep.max_abs <= 1e-12


def test_residuals_reject_a_mask_on_another_grid(unit_square):
    """A mask of the same shape on a grid shifted by half a step flags
    other points, so residuals refuses it."""
    g = grid_covering(unit_square, 1.0 / 32)
    fld = distance_field(unit_square, g)
    shifted = GridSpec(tuple(o + 0.5 * g.spacing for o in g.origin),
                       g.spacing, g.dims)
    mask = detect_multiproj(unit_square, shifted)
    assert mask.flags.shape == fld.values.shape
    with pytest.raises(GridError, match="singular mask grid"):
        residuals(fld, singular_mask=mask)


def test_residual_sees_the_shock_without_a_mask(unit_square):
    g = grid_covering(unit_square, 1.0 / 32)
    fld = distance_field(unit_square, g)
    rep = residuals(fld)
    assert rep.max_abs >= 0.5    # diagonal kink left in


def test_upwind_residual_shape(unit_disk):
    g = grid_covering(unit_disk, 1.0 / 16)
    fld = distance_field(unit_disk, g)
    res = upwind_residual(fld)
    assert res.shape == tuple(g.dims)


def test_residual_report_file(tmp_path, unit_disk):
    g = grid_covering(unit_disk, 1.0 / 32)
    u = fast_march(problem_from_shape(unit_disk, g))
    rep = residuals(u, singular_mask=detect_multiproj(unit_disk, g))
    path = tmp_path / "resid.txt"
    write_residual_report(rep, path)
    text = path.read_text()
    assert "max" in text
    assert str(rep.n_eligible) in text
