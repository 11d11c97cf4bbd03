"""Reproducible experiment drivers shared by the command line and tests.

Each driver builds its own shapes and grids from a small config, runs one
self-contained study, and returns a flat report dict (strings, numbers,
booleans) with a ``passed`` verdict.  The drivers hold the pinned default
parameters; the acceptance suite asserts on their reports rather than
duplicating the setups.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy import ndimage

from .distance import (
    ScalarField,
    _signed_field,
    grid_covering,
    gradient_field,
)
from .eikonal import residuals
from .geometry import Ball, Box, GraphHypersurface, OffsetBody, \
    make_random_polytope
from .innerball import inner_ball_profile, theorem_equivalence_check
from .projection import _cycle_nearest_feet, _cycle_rows, project
from .singular import coverage_density, detect_footjump, detect_multiproj, \
    inclusion_violations

# pinned experiment defaults
GRAD_H = 1.0 / 128          # gradient study grid step
OFFSET_H = 1.0 / 64         # offset identity grid step
DENSITY_H = 1.0 / 128       # coverage trend grid step
ROUGH_H = 1.0 / 256         # rough graph grid step
COVER_R = 0.05              # dilation radius for coverage statistics
FREE_R = 0.05               # flag-free ball radius for the equivalence
RHO_MIN = 0.05              # patch verdict threshold for the equivalence
TUBE_R = 0.1                # two-sided band around the rough graph
ROUGH_COLLAR = 0.15         # body-side collar depth for the rough A check
FACET_COUNTS = (8, 16, 32, 64, 128)
GRAPH_ALPHA = 0.5
GRAPH_BASE = 4
GRAPH_WINDOW = (0.5, 1.5)
GRAPH_PAD = 0.3             # sampling overhang beyond the window
FINE_REFINE = 16            # fine measuring sample refinement vs grid step
FOOT_SPACING = 6e-5         # sampling that resolves the rough collar's
                            # singular set for the equivalence


class ExperimentError(ValueError):
    """Unknown experiment or inconsistent configuration."""


def parse_fraction(text):
    """Float from '0.0078125' or a ratio like '1/128'."""
    text = str(text).strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ExperimentError(f"cannot parse grid step {text!r}") from exc
    if not value > 0.0:
        raise ExperimentError(f"grid step must be positive, got {text!r}")
    return value


def parse_grid(text):
    """(step, dims or None) from 'h' or 'h,n1,n2[,n3]'."""
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ExperimentError("empty grid specification")
    h = parse_fraction(parts[0])
    if len(parts) == 1:
        return h, None
    dims = tuple(int(p) for p in parts[1:])
    if len(dims) not in (2, 3) or any(d < 2 for d in dims):
        raise ExperimentError(f"bad grid dims in {text!r}")
    return h, dims


@dataclass
class ExperimentConfig:
    """Knobs shared by the experiment drivers and the command line.

    grid is 'h' or 'h,n1,n2[,n3]' (h accepts ratios like 1/128); shape is
    an inline shape spec dict or {"file": path}.  Optional detector and
    inner-ball parameters override the driver defaults where they apply.
    The JSON form round-trips exactly.
    """

    seed: int = 0
    grid: str | None = None
    shape: dict | None = None
    tau_multi: float | None = None
    theta_deg: float | None = None
    rho_min: float | None = None
    r_free: float | None = None
    t_values: list | None = None
    out_dir: str | None = None
    quiet: bool = False

    def __post_init__(self):
        if self.grid is not None:
            parse_grid(self.grid)  # validate early

    @property
    def grid_h(self):
        if self.grid is None:
            return None
        return parse_grid(self.grid)[0]

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ExperimentError(
                f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def save(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_json(fh.read())


_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def _unit_square():
    return Box((1.0, 1.0)).as_polytope()


def _nearest_feet(shape, pts):
    """One nearest boundary foot per point for bulk gradient evaluation."""
    if isinstance(shape, Ball):
        rel = pts - shape.center
        rho = np.linalg.norm(rel, axis=1, keepdims=True)
        safe = np.where(rho > 0.0, rho, 1.0)
        return shape.center + shape.radius * rel / safe
    return _cycle_nearest_feet(shape, pts)


# ---------------------------------------------------------------------------
# gradient characterization
# ---------------------------------------------------------------------------

def run_lemma_gradient(config):
    """Away from flags the distance gradient equals (x - foot) / distance.

    For the disk, the square, and the offset square, compares the finite
    difference gradient of the exact distance field against the projection
    formula at nodes at least 10h from both the boundary and the flags,
    and checks that flagged nodes carry genuinely spread nearest sets: the
    flagged nodes of the square and the offset square are the rows of one
    projection._cycle_rows call, the disk's (its centre) go through project.
    """
    h = config.grid_h or GRAD_H
    square = _unit_square()
    shapes = [
        ("disk", Ball((0.0, 0.0), 1.0)),
        ("square", square),
        ("offset_square", OffsetBody(square, 0.5)),
    ]
    report = {"experiment": "lemma_gradient", "h": h}
    ok = True
    for label, shape in shapes:
        grid = grid_covering(shape, h)
        mask = detect_multiproj(shape, grid)
        dK = mask.distance
        fld = ScalarField(grid, dK, kind="distance")
        flag_dist = mask.distance_to_flags()
        eligible = (dK >= 10.0 * h) & (flag_dist >= 10.0 * h)

        pts = grid.points()
        feet = _nearest_feet(shape, pts)
        dflat = dK.reshape(-1)
        safe = np.where(dflat > 0.0, dflat, 1.0)
        formula = (pts - feet) / safe[:, None]
        fd = gradient_field(fld).reshape(-1, grid.dim)
        dev = np.linalg.norm(fd - formula, axis=1).reshape(grid.dims)
        max_dev = float(dev[eligible].max())

        flagged = pts[mask.flags.reshape(-1)]
        if flagged.shape[0]:
            tau = float(mask.params["tau_multi"])
            if isinstance(shape, Ball):
                spread = np.array([project(shape, x, tau_multi=tau).spread
                                   for x in flagged])
            else:
                spread = _cycle_rows(shape, flagged, tau)[3]
            spread_frac = np.count_nonzero(spread > 5.0 * tau) \
                / flagged.shape[0]
        else:
            spread_frac = 1.0

        report[f"{label}_max_dev"] = max_dev
        report[f"{label}_n_flags"] = int(mask.n_flags)
        report[f"{label}_wide_spread_frac"] = float(spread_frac)
        ok = ok and max_dev <= 10.0 * h and spread_frac >= 0.95
    report["passed"] = bool(ok)
    return report


# ---------------------------------------------------------------------------
# offset distance identity and flag inclusion
# ---------------------------------------------------------------------------

def run_offset_identity(config):
    """Inside the base body the offset distance is the base distance plus
    epsilon, to near machine precision, and base flags sit inside the
    (one grid step dilated) offset flags."""
    h = config.grid_h or OFFSET_H
    bases = [("square", _unit_square())]
    for n, shift in ((8, 1), (12, 2), (20, 3)):
        bases.append((f"poly{n}", make_random_polytope(n, config.seed + shift)))
    report = {"experiment": "offset_identity", "h": h}
    worst = 0.0
    total_violations = 0
    for eps in (0.1, 0.5):
        for label, base in bases:
            off = OffsetBody(base, eps)
            grid = grid_covering(off, h)
            pts = grid.points()
            m_base = detect_multiproj(base, grid)
            m_off = detect_multiproj(off, grid)
            inside = np.asarray(base.contains(pts)).reshape(grid.dims)
            dev = float(np.abs(m_off.distance - m_base.distance
                               - eps)[inside].max())
            nviol, _ = inclusion_violations(m_base, m_off, radius=h)
            key = f"{label}_e{eps:g}"
            report[f"{key}_dev"] = dev
            report[f"{key}_violations"] = int(nviol)
            worst = max(worst, dev)
            total_violations += int(nviol)
    report["max_dev"] = worst
    report["total_violations"] = total_violations
    report["passed"] = bool(worst <= 1e-12 and total_violations == 0)
    return report


# ---------------------------------------------------------------------------
# coverage growth with facet count, and the dense-flag offset body
# ---------------------------------------------------------------------------

def run_typical_density(config):
    """Coverage of the flag set grows with facet count, and the offset of a
    many-facet polytope carries a solid flag-covered ball while its signed
    field still solves the equation away from the flags."""
    h = config.grid_h or DENSITY_H
    report = {"experiment": "typical_density", "h": h, "r": COVER_R}
    trend_ok = True
    for k in range(3):
        seed = config.seed + k
        covs = []
        for n in FACET_COUNTS:
            poly = make_random_polytope(n, seed)
            grid = grid_covering(poly, h)
            mask = detect_multiproj(poly, grid)
            rep = coverage_density(mask, poly, COVER_R)
            covs.append(rep.covered_fraction)
        decreasing = sum(covs[i + 1] < covs[i] for i in range(len(covs) - 1))
        report[f"seed{seed}_coverages"] = ";".join(f"{c:.6f}" for c in covs)
        report[f"seed{seed}_decreasing_steps"] = int(decreasing)
        trend_ok = trend_ok and decreasing <= 1

    base = make_random_polytope(128, config.seed)
    body = OffsetBody(base, 0.2)
    grid = grid_covering(body, h)
    mask = detect_multiproj(body, grid)
    rep = coverage_density(mask, base, COVER_R)
    center_inside = rep.ball_center is not None \
        and bool(base.contains(rep.ball_center))
    ball_ok = rep.ball_radius >= 0.1 and center_inside
    u = _signed_field(body, grid, mask.distance)
    rr = residuals(u, singular_mask=mask, margin=10.0 * h)
    resid_ok = (not rr.empty) and rr.max_abs <= 10.0 * h

    report["offset128_coverage"] = rep.covered_fraction
    report["offset128_ball_radius"] = rep.ball_radius
    report["offset128_ball_center"] = (
        "" if rep.ball_center is None
        else ";".join(f"{v:.6f}" for v in rep.ball_center))
    report["offset128_ball_in_base"] = bool(center_inside)
    report["offset128_resid_max"] = rr.max_abs
    report["passed"] = bool(trend_ok and ball_ok and resid_ok)
    return report


# ---------------------------------------------------------------------------
# equivalence of flag-free room and uniform inner balls
# ---------------------------------------------------------------------------

def _collar_membership(graph, surface, depth, x_lo, x_hi):
    """Centers whose r_free ball stays in the body-side boundary collar.

    The collar is the body side of the curve up to the given depth; the
    x window and the depth are passed already shrunk by the ball radius,
    so center membership here equals ball containment in the collar.
    """

    def member(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        body = pts[:, 1] >= graph.profile(pts[:, 0])
        dk = surface.boundary_distance(pts)
        return body & (dk <= depth) & (pts[:, 0] >= x_lo) \
            & (pts[:, 0] <= x_hi)

    return member


def rough_collar_equivalence(terms):
    """Equivalence check on the body-side collar of the rough graph with
    the given number of terms, at the pinned collar settings.

    A reads its flags from detect_footjump on a FOOT_SPACING sampling,
    classified only on the nodes within r_free (plus two steps for flag
    placement) of a candidate centre, since no other flag can decide A.
    detect_multiproj's tie window of one grid step merges the branches of
    a many-term graph whose two nearest points lie close together, and
    misses them.  Returns the EquivalenceReport and the flag mask.
    """
    graph = GraphHypersurface(GRAPH_ALPHA, GRAPH_BASE, terms,
                              window=GRAPH_WINDOW)
    hg = ROUGH_H
    grid = grid_covering(graph, hg, margin=ROUGH_COLLAR + 4 * hg)
    surface = graph.boundary_sample(0.5 * hg, pad=GRAPH_PAD)
    lo, hi = GRAPH_WINDOW
    quarter = 0.25 * (hi - lo)
    member = _collar_membership(graph, surface, ROUGH_COLLAR - FREE_R,
                                lo + quarter + FREE_R,
                                hi - quarter - FREE_R)
    centres = member(grid.points()).reshape(grid.dims)
    read = ndimage.distance_transform_edt(~centres, sampling=hg) \
        <= FREE_R + 2 * hg
    mask = detect_footjump(graph.boundary_sample(FOOT_SPACING,
                                                 pad=GRAPH_PAD),
                           grid, region=read)
    chk = theorem_equivalence_check(graph, grid, FREE_R, rho_min=RHO_MIN,
                                    r_max=4 * RHO_MIN, surface=surface,
                                    inside=member, mask=mask)
    return chk, mask


def run_equivalence(config):
    """A (flag-free ball of radius r_free in the region) and B (some
    boundary patch admits uniform inner balls of radius rho_min) agree:
    both hold on the disk and on offset bodies, both fail on the
    five-term rough graph collar.

    Measured on the collar at five terms: the best flag-free clearance is
    0.0456 < r_free, and the best patch's smallest inner ball is
    0.0225 < rho_min.  The flags come from foot jumps on a fine sampling
    (see rough_collar_equivalence); with detect_multiproj's tie window
    the collar kept a spurious pocket of clearance 0.0997 at
    (0.9922, -0.7578), 0.038 from a branch whose feet lie about 0.004
    apart."""
    h = config.grid_h or OFFSET_H
    square = _unit_square()
    cases = [
        ("disk", Ball((0.0, 0.0), 1.0), True),
        ("square_offset", OffsetBody(square, 0.5), True),
        ("poly_offset",
         OffsetBody(make_random_polytope(16, config.seed + 3), 0.3), True),
    ]
    report = {"experiment": "equivalence", "h": h,
              "r_free": FREE_R, "rho_min": RHO_MIN}
    ok = True
    for label, shape, expected in cases:
        grid = grid_covering(shape, h)
        chk = theorem_equivalence_check(shape, grid, FREE_R,
                                        rho_min=RHO_MIN, r_max=4 * RHO_MIN)
        report[f"{label}_A"] = bool(chk.condition_a)
        report[f"{label}_B"] = bool(chk.condition_b)
        report[f"{label}_agree"] = bool(chk.agree)
        ok = ok and chk.agree and chk.condition_a == expected

    chk, _ = rough_collar_equivalence(5)
    report["rough_graph_A"] = bool(chk.condition_a)
    report["rough_graph_B"] = bool(chk.condition_b)
    report["rough_graph_agree"] = bool(chk.agree)
    report["rough_graph_h"] = ROUGH_H
    if chk.witness is not None:
        report["rough_graph_witness"] = \
            "(" + ",".join(f"{v:.4f}" for v in chk.witness) + ")"
        report["rough_graph_clearance"] = float(chk.witness_clearance)
    ok = ok and chk.agree and not chk.condition_a
    report["passed"] = bool(ok)
    return report


# ---------------------------------------------------------------------------
# roughness sweep of the graph family
# ---------------------------------------------------------------------------

def run_counterexample(config):
    """Truncation depth sweep of the rough graph: inner ball radii collapse
    while flags fill the two-sided band around the curve."""
    h = config.grid_h or ROUGH_H
    lo, hi = GRAPH_WINDOW
    quarter = 0.25 * (hi - lo)
    report = {"experiment": "counterexample", "h": h,
              "tube": TUBE_R, "r": COVER_R}
    rho_mins = []
    coverages = []
    for terms in range(1, 6):
        graph = GraphHypersurface(GRAPH_ALPHA, GRAPH_BASE, terms,
                                  window=GRAPH_WINDOW)
        grid = grid_covering(graph, h, margin=TUBE_R + 4 * h)
        surface = graph.boundary_sample(0.5 * h, pad=GRAPH_PAD)
        mask = detect_multiproj(surface, grid)
        pts = grid.points()
        dk = mask.distance.reshape(-1)
        central = (pts[:, 0] >= lo + quarter) & (pts[:, 0] <= hi - quarter)
        region = ((dk <= TUBE_R) & central).reshape(grid.dims)
        cov = coverage_density(mask, region, COVER_R).covered_fraction

        probe = graph.boundary_sample(h)
        fine = graph.boundary_sample(h / FINE_REFINE)
        prof = inner_ball_profile(probe, h, r_max=0.5,
                                  tau_ball=max(1e-6 * graph.diameter(),
                                               0.25 * h),
                                  measured=fine)
        sel = (prof.points[:, 0] >= lo + quarter) \
            & (prof.points[:, 0] <= hi - quarter)
        rho = float(prof.radii[sel].min())

        rho_mins.append(rho)
        coverages.append(float(cov))
        report[f"m{terms}_rho_min"] = rho
        report[f"m{terms}_coverage"] = float(cov)
        report[f"m{terms}_n_flags"] = int(mask.n_flags)

    rho_decreasing = all(rho_mins[i + 1] < rho_mins[i]
                         for i in range(len(rho_mins) - 1))
    cov_growing = all(coverages[i + 1] >= coverages[i]
                      for i in range(len(coverages) - 1))
    report["rho_strictly_decreasing"] = bool(rho_decreasing)
    report["coverage_non_decreasing"] = bool(cov_growing)
    report["final_coverage"] = coverages[-1]
    report["passed"] = bool(rho_decreasing and cov_growing
                            and coverages[-1] >= 0.5)
    return report


EXPERIMENTS = {
    "lemma_gradient": run_lemma_gradient,
    "offset_identity": run_offset_identity,
    "typical_density": run_typical_density,
    "equivalence": run_equivalence,
    "counterexample": run_counterexample,
}


def format_verdict(report):
    """Flat key=value lines, machine and eyeball readable."""
    lines = []
    for key, val in report.items():
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = f"{val:.9g}"
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def write_verdict(report, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_verdict(report))
