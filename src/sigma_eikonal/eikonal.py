"""First-order fast marching for |grad u| = 1 and residual diagnostics.

The solver is the classic single-pass method: a min-heap of tentative
values, each node finalized exactly once, updates from the Godunov upwind
discretization using accepted neighbors only.  With m available axis values
a_1 <= ... <= a_m the update solves

    sum_i max(t - a_i, 0)^2 = h^2

taking the largest consistent branch.  Heap keys are (value, flat index),
so equal values break ties lexicographically and reruns are bit-identical.
Acceptance order is monotone in value; this is asserted during the sweep.
Nodes that never become reachable from the seeds keep value +inf and are
counted in the field metadata rather than silently filled.

The sweep runs on the grid padded by one rim node on each side of every
axis.  Rim nodes count as accepted from the start and offer the value
+inf, which no update uses, so a node's neighbours are its flat index
plus or minus each axis stride, with no coordinates and no bounds checks.
The padded flat index grows with the grid's own flat index (both are
row-major over the same node order), so the heap breaks every tie as on
the unpadded grid and the values and counts are the same.

The update runs inline in the sweep, written once for 2D and once for 3D:
the axis values are locals a, b (, c), sorted by compare-and-swap with an
axis that has no accepted node left at +inf.  It evaluates the same
expressions in the same branch order as the sorted-list form it replaced
(``_solve_update`` in ``tests/oracles.py``): t = a + h; if t > b, the
two-axis root from 2h^2 - (a - b)^2; if that exceeds c, the three-axis
root.  An axis at +inf sorts last and fails the t > b or t > c test, which
is where the list form stops for want of a value, and equal values sort
to the same floats in either order, so every update, heap key and tie is
bit for bit the same.

Residuals evaluate the same upwind gradient on a finished field:
per axis g_k = max((u - u_minus)/h, (u - u_plus)/h, 0), residual
|g|^2 - 1.  Statistics exclude nodes near the surface (small |u|), near
flagged singular nodes, and on the grid rim, and the report records those
eligibility choices.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .distance import GridSpec, ScalarField, GridError, _node_distance

ACCEPT_SLACK = 1e-9


class EikonalError(ValueError):
    """Invalid marching problem."""


@dataclass
class EikonalProblem:
    """Grid and seed nodes with exact sub-grid values; the march runs away
    from the seeds.  Validation checks every seed's dimension, then every
    index against the grid, then every value, and names the first seed
    that fails."""

    grid: GridSpec
    seeds: list                      # [(index tuple, value), ...]

    def __post_init__(self):
        if not self.seeds:
            raise EikonalError("at least one seed node is required")
        idxs, vals = zip(*self.seeds)
        dims = self.grid.dims
        wrong = [len(idx) != len(dims) for idx in idxs]
        if any(wrong):
            idx = idxs[wrong.index(True)]
            raise EikonalError(f"seed index {idx} has wrong dimension")
        index = np.array(idxs)
        outside = ((index < 0) | (index >= dims)).any(axis=1)
        if outside.any():
            idx = idxs[int(np.argmax(outside))]
            raise EikonalError(f"seed index {idx} is outside the grid")
        band = self.grid.spacing * math.sqrt(self.grid.dim)
        value = np.array(vals, dtype=float)
        bad = ~((0.0 <= value) & (value <= band + 1e-12))
        if bad.any():
            val = vals[int(np.argmax(bad))]
            raise EikonalError(
                f"seed value {val} outside [0, h*sqrt(dim)] = [0, {band}]")


def problem_from_shape(shape, grid):
    """Seed every node within one cell diagonal of the surface, exactly,
    from the shape's own boundary_distance (distance._node_distance, so a
    distance_field on the same grid has already computed it)."""
    d = _node_distance(shape, grid)
    band = grid.spacing * math.sqrt(grid.dim)
    near = d <= band
    idxs = np.argwhere(near.reshape(grid.dims))
    if idxs.shape[0] == 0:
        raise EikonalError("no grid nodes lie within one cell diagonal of "
                           "the surface; refine the grid")
    return EikonalProblem(grid, list(zip(map(tuple, idxs.tolist()),
                                         d[near].tolist())))


def fast_march(problem):
    """Solve the marching problem; returns an eikonal_solution field.

    The returned field's ``meta`` records the number of accepted nodes and
    any unreachable nodes left at +inf.
    """
    grid = problem.grid
    h = grid.spacing
    dim = grid.dim
    # the rim-padded state (module docstring): values holds tentative
    # values and -inf once a node is accepted, as the rim is from the
    # start; final holds accepted values and +inf elsewhere, rim included
    padded = tuple(d + 2 for d in grid.dims)
    inner = (slice(1, -1),) * dim
    strides = [1] * dim
    for k in range(dim - 2, -1, -1):
        strides[k] = strides[k + 1] * padded[k + 1]
    steps = [sign * s for s in strides for sign in (-1, 1)]
    inf, push, pop, sqrt = math.inf, heapq.heappush, heapq.heappop, math.sqrt
    state = np.full(padded, -inf)
    state[inner] = inf
    # plain lists: each read in the sweep is a list index, not a numpy
    # scalar lookup
    values = state.ravel().tolist()
    final = [inf] * len(values)

    heap = []
    idxs, vals = zip(*problem.seeds)
    flat = ((np.array(idxs) + 1) @ np.array(strides)).tolist()
    for fi, val in zip(flat, vals):
        if val < values[fi]:
            values[fi] = val
            push(heap, (val, fi))

    # the update's constants, as _solve_update (tests/oracles.py) forms them
    two_hh, hh = 2.0 * h * h, h * h
    sx, sy = strides[0], strides[1]
    sz = strides[2] if dim == 3 else 0
    last_accepted = -inf
    n_accepted = 0
    while heap:
        val, fi = pop(heap)
        if val != values[fi]:       # accepted, or a stale entry
            continue
        if val < last_accepted - ACCEPT_SLACK * (1.0 + abs(val)):
            raise AssertionError("acceptance order lost monotonicity")
        last_accepted = val
        values[fi] = -inf
        final[fi] = val
        n_accepted += 1
        for step in steps:
            nb = fi + step
            if values[nb] == -inf:
                continue
            # the accepted value on each axis around the neighbour, +inf
            # where neither side is accepted (fi is on one axis), sorted
            # a <= b (<= c): an axis at +inf sorts last and fails every
            # t > b, t > c test, as a shorter sorted list would
            a = final[nb - sx]
            t = final[nb + sx]
            if t < a:
                a = t
            b = final[nb - sy]
            t = final[nb + sy]
            if t < b:
                b = t
            if b < a:
                a, b = b, a
            if sz:
                c = final[nb - sz]
                t = final[nb + sz]
                if t < c:
                    c = t
                if c < b:
                    b, c = c, b
                    if b < a:
                        a, b = b, a
                t = a + h
                if t > b:
                    disc = two_hh - (a - b) ** 2
                    if disc > 0.0:
                        t = 0.5 * (a + b + sqrt(disc))
                    if t > c:
                        s1 = a + b + c
                        s2 = a * a + b * b + c * c
                        disc = s1 * s1 - 3.0 * (s2 - hh)
                        if disc > 0.0:
                            t3 = (s1 + sqrt(disc)) / 3.0
                            if t3 > c:
                                t = t3
            else:
                t = a + h
                if t > b:
                    disc = two_hh - (a - b) ** 2
                    if disc > 0.0:
                        t = 0.5 * (a + b + sqrt(disc))
            if t < values[nb]:
                values[nb] = t
                push(heap, (t, nb))

    out = ScalarField(grid, np.array(final).reshape(padded)[inner].copy(),
                      kind="eikonal_solution",
                      meta={"accepted": n_accepted,
                            "unreachable": grid.n_nodes - n_accepted})
    return out


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    """Upwind eikonal residual statistics over an explicit eligible set."""

    max_abs: float
    mean_abs: float
    n_eligible: int
    margin: float
    empty: bool
    residuals: np.ndarray = field(repr=False, default=None)
    eligible: np.ndarray = field(repr=False, default=None)

    def summary_lines(self):
        return [
            f"eligible_nodes={self.n_eligible}",
            f"margin={self.margin!r}",
            f"max_abs_residual={self.max_abs!r}",
            f"mean_abs_residual={self.mean_abs!r}",
        ]


def upwind_residual(f):
    """|grad u|^2 - 1 with the Godunov upwind gradient, all nodes."""
    u = f.values
    h = f.grid.spacing
    gsq = np.zeros_like(u)
    for axis in range(f.grid.dim):
        um = np.full_like(u, np.inf)
        up = np.full_like(u, np.inf)
        sl_lo = [slice(None)] * f.grid.dim
        sl_hi = [slice(None)] * f.grid.dim
        sl_lo[axis] = slice(1, None)
        sl_hi[axis] = slice(None, -1)
        um[tuple(sl_lo)] = u[tuple(sl_hi)]
        up[tuple(sl_hi)] = u[tuple(sl_lo)]
        with np.errstate(invalid="ignore"):
            g = np.maximum.reduce([
                np.where(np.isfinite(um), (u - um) / h, 0.0),
                np.where(np.isfinite(up), (u - up) / h, 0.0),
                np.zeros_like(u),
            ])
        gsq += g * g
    return gsq - 1.0


def residuals(f, singular_mask=None, margin=None):
    """Residual statistics away from the surface, flags, and the grid rim.

    ``singular_mask`` is a SingularMask on the field's grid (another grid
    raises GridError) or None; ``margin`` defaults to 10 grid cells.
    """
    if f.kind not in ("distance", "signed_distance", "eikonal_solution"):
        raise GridError("residuals need a distance-like field")
    if margin is None:
        margin = 10.0 * f.grid.spacing
    res = upwind_residual(f)

    eligible = np.isfinite(f.values)
    # away from the surface: the field value is itself the distance to it
    eligible &= np.abs(f.values) >= margin
    # off the grid rim (upwind stencils there are one-sided)
    interior = np.zeros(f.grid.dims, dtype=bool)
    interior[(slice(1, -1),) * f.grid.dim] = True
    eligible &= interior

    if singular_mask is not None:
        if singular_mask.grid != f.grid:
            raise GridError("singular mask grid does not match the field's")
        eligible &= singular_mask.distance_to_flags() >= margin

    sel = res[eligible]
    if sel.size == 0:
        return ResidualReport(math.nan, math.nan, 0, margin, True,
                              residuals=res, eligible=eligible)
    return ResidualReport(float(np.abs(sel).max()), float(np.abs(sel).mean()),
                          int(sel.size), margin, False,
                          residuals=res, eligible=eligible)


def write_residual_report(report, path):
    with open(path, "w", encoding="ascii") as fh:
        for line in report.summary_lines():
            fh.write(line + "\n")
