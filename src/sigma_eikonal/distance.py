"""Regular grids, distance and signed-distance fields, and gradients.

Fields live on axis-aligned grids with uniform spacing.  Node (i, j[, k])
sits at ``origin + spacing * index`` and values are stored in an array of
shape ``dims`` (C order, first axis is x).  Distance fields are evaluated
with the same exact element kernels the projection module uses, so node
values agree with ``project(shape, x).distance`` to rounding for exact
shapes and to sampling accuracy for sampled surfaces.

Field files are a short ``key=value`` text header terminated by an ``end``
line, followed by raw little-endian float64 values in C order.  A CSV
export (x,y[,z],value) is provided for plotting.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GraphHypersurface,
    OffsetBody,
    SampledSurface,
)
from .projection import project

MAX_TOTAL_NODES = 2 ** 27
MIN_AXIS_NODES = 8
COVER_MARGIN_CELLS = 2          # required shape-to-grid margin, in cells
FIELD_KINDS = ("distance", "signed_distance", "eikonal_solution", "generic")

THREADS_ENV = "SIGMA_EIKONAL_THREADS"


class GridError(ValueError):
    """Invalid grid construction or field request."""


class SingularPointError(RuntimeError):
    """Gradient requested where the nearest point is not unique."""


class ZeroDistanceError(RuntimeError):
    """Gradient requested on the surface itself."""


def thread_count():
    """Worker cap for chunked field evaluation (env-capped, >= 1)."""
    cap = os.environ.get(THREADS_ENV)
    try:
        cap = int(cap) if cap else 0
    except ValueError:
        cap = 0
    avail = os.cpu_count() or 1
    if cap > 0:
        return max(1, min(cap, avail))
    return max(1, min(4, avail))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: origin corner, spacing, and node counts per axis."""

    origin: tuple
    spacing: float
    dims: tuple

    def __post_init__(self):
        origin = tuple(float(v) for v in self.origin)
        dims = tuple(int(v) for v in self.dims)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", float(self.spacing))
        if len(origin) != len(dims) or len(dims) not in (2, 3):
            raise GridError("grid must be 2D or 3D with matching origin")
        if self.spacing <= 0:
            raise GridError("grid spacing must be positive")
        if any(d < MIN_AXIS_NODES for d in dims):
            raise GridError(f"grids need at least {MIN_AXIS_NODES} nodes per axis")
        total = 1
        for d in dims:
            total *= d
        if total > MAX_TOTAL_NODES:
            raise GridError(f"grid with {total} nodes exceeds the "
                            f"{MAX_TOTAL_NODES} node budget")

    @property
    def dim(self):
        return len(self.dims)

    @property
    def n_nodes(self):
        total = 1
        for d in self.dims:
            total *= d
        return total

    def axes(self):
        return [self.origin[k] + self.spacing * np.arange(self.dims[k])
                for k in range(self.dim)]

    def points(self):
        """All node coordinates, shape (n_nodes, dim), C node order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def node_point(self, index):
        return np.array([self.origin[k] + self.spacing * index[k]
                         for k in range(self.dim)])

    def upper(self):
        return tuple(self.origin[k] + self.spacing * (self.dims[k] - 1)
                     for k in range(self.dim))

    def nearest_node(self, point):
        idx = tuple(int(round((point[k] - self.origin[k]) / self.spacing))
                    for k in range(self.dim))
        if any(i < 0 or i >= self.dims[k] for k, i in enumerate(idx)):
            raise GridError(f"point {tuple(point)} is outside the grid")
        return idx

    def covers(self, lo, hi, margin):
        up = self.upper()
        return (all(lo[k] - margin >= self.origin[k] for k in range(self.dim))
                and all(hi[k] + margin <= up[k] for k in range(self.dim)))


def grid_covering(shape, spacing, margin=None, snap=True):
    """Smallest snapped grid covering the shape with the required margin."""
    lo, hi = shape.bbox()
    if margin is None:
        margin = (COVER_MARGIN_CELLS + 1) * spacing
    lo = np.asarray(lo, dtype=float) - margin
    hi = np.asarray(hi, dtype=float) + margin
    if snap:
        lo = np.floor(lo / spacing) * spacing
    dims = tuple(int(np.ceil((hi[k] - lo[k]) / spacing)) + 1
                 for k in range(lo.shape[0]))
    dims = tuple(max(d, MIN_AXIS_NODES) for d in dims)
    return GridSpec(tuple(lo), spacing, dims)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class ScalarField:
    """Values on a grid, tagged with what they represent."""

    grid: GridSpec
    values: np.ndarray
    kind: str = "distance"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(self.grid.dims):
            raise GridError("field values must have the grid's shape")
        if self.kind not in FIELD_KINDS:
            raise GridError(f"unknown field kind {self.kind!r}")
        if self.kind == "distance":
            finite = self.values[np.isfinite(self.values)]
            if finite.size and finite.min() < 0:
                raise GridError("distance fields must be nonnegative")

    def lipschitz_violation(self, slack=None):
        """Worst |dv| - h excess across grid edges (0 when 1-Lipschitz)."""
        h = self.grid.spacing
        if slack is None:
            slack = h * np.sqrt(self.grid.dim) - h
        worst = 0.0
        for axis in range(self.grid.dim):
            dv = np.abs(np.diff(self.values, axis=axis))
            dv = dv[np.isfinite(dv)]
            if dv.size:
                worst = max(worst, float(dv.max()) - h - slack)
        return max(0.0, worst)

    def interpolate(self, point):
        """Multilinear interpolation at one point inside the grid."""
        g = self.grid
        rel = [(point[k] - g.origin[k]) / g.spacing for k in range(g.dim)]
        base = [int(np.floor(r)) for r in rel]
        base = [min(max(b, 0), g.dims[k] - 2) for k, b in enumerate(base)]
        frac = [r - b for r, b in zip(rel, base)]
        out = 0.0
        for corner in range(2 ** g.dim):
            w = 1.0
            idx = []
            for k in range(g.dim):
                bit = (corner >> k) & 1
                idx.append(base[k] + bit)
                w *= frac[k] if bit else (1.0 - frac[k])
            out += w * self.values[tuple(idx)]
        return out


def _bulk_boundary_distance(shape, points):
    """Vectorized exact boundary distance used by field evaluation."""
    if isinstance(shape, Box):
        shape = shape.as_polytope()
    if isinstance(shape, GraphHypersurface):
        raise GridError("distance fields for graphs use a boundary sampling; "
                        "pass shape.boundary_sample(spacing)")
    if not isinstance(shape, (ConvexPolytope, OffsetBody, Ball, Ellipse,
                              SampledSurface)):
        raise GridError(f"unsupported shape {type(shape).__name__}")
    return shape.boundary_distance(points)


def _evaluate_chunked(fn, points, chunk=65536):
    n = points.shape[0]
    if n <= chunk:
        return fn(points)
    ranges = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
    out = np.empty(n)
    workers = thread_count()
    if workers == 1 or len(ranges) == 1:
        for s, e in ranges:
            out[s:e] = fn(points[s:e])
        return out
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, points[s:e]): (s, e) for s, e in ranges}
        for fut, (s, e) in futures.items():
            out[s:e] = fut.result()
    return out


def _require_coverage(shape, grid, check_cover):
    if not check_cover:
        return
    lo, hi = shape.bbox()
    margin = COVER_MARGIN_CELLS * grid.spacing
    if not grid.covers(lo, hi, margin):
        raise GridError(
            "grid does not cover the shape with a 2-cell margin; enlarge the "
            "grid or pass check_cover=False to accept window truncation")


def distance_field(shape, grid, check_cover=True):
    """Distance to the shape boundary at every grid node."""
    _require_coverage(shape, grid, check_cover)
    pts = grid.points()
    vals = _evaluate_chunked(lambda p: _bulk_boundary_distance(shape, p), pts)
    return ScalarField(grid, vals.reshape(grid.dims), kind="distance")


def signed_distance_field(shape, grid, check_cover=True):
    """Positive inside the enclosed body, negative outside (convex only)."""
    if not getattr(shape, "is_convex", False):
        raise GridError("signed distance is defined here for convex bodies only")
    _require_coverage(shape, grid, check_cover)
    pts = grid.points()
    vals = _evaluate_chunked(lambda p: _bulk_boundary_distance(shape, p), pts)
    inside = shape.contains(pts)
    signed = np.where(inside, vals, -vals)
    return ScalarField(grid, signed.reshape(grid.dims), kind="signed_distance")


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def gradient_by_projection(shape, x, tau_multi=None, tau_zero=None):
    """Gradient of the boundary distance via (x - nearest) / distance.

    Raises SingularPointError when the nearest point is not unique and
    ZeroDistanceError on the boundary itself, where the formula degenerates.
    """
    res = project(shape, x, tau_multi)
    if tau_zero is None:
        tau_zero = 1e-9 * shape.diameter()
    if res.distance <= tau_zero:
        raise ZeroDistanceError("zero distance: x lies on the boundary")
    if not res.is_singleton:
        raise SingularPointError(
            f"singular point: {res.nearest.shape[0]} nearest points, "
            f"spread {res.spread:.3g}")
    x = np.asarray(x, dtype=float)
    return (x - res.nearest[0]) / res.distance


def finite_difference_gradient(field, index):
    """Central-difference gradient at a node; one-sided at grid edges.

    Returns (gradient, one_sided) where one_sided flags that at least one
    axis had to fall back to a forward or backward difference.
    """
    g = field.grid
    h = g.spacing
    vals = field.values
    idx = tuple(int(i) for i in index)
    if any(i < 0 or i >= g.dims[k] for k, i in enumerate(idx)):
        raise GridError(f"node {idx} is outside the grid")
    grad = np.zeros(g.dim)
    one_sided = False
    for k in range(g.dim):
        lo = list(idx)
        hi = list(idx)
        if idx[k] == 0:
            hi[k] += 1
            grad[k] = (vals[tuple(hi)] - vals[idx]) / h
            one_sided = True
        elif idx[k] == g.dims[k] - 1:
            lo[k] -= 1
            grad[k] = (vals[idx] - vals[tuple(lo)]) / h
            one_sided = True
        else:
            lo[k] -= 1
            hi[k] += 1
            grad[k] = (vals[tuple(hi)] - vals[tuple(lo)]) / (2.0 * h)
    return grad, one_sided


def gradient_field(field):
    """Componentwise np.gradient of the whole field (central inside)."""
    grads = np.gradient(field.values, field.grid.spacing)
    return np.stack(grads, axis=-1)


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------

def write_field(f, path):
    """Write header (key=value lines, 'end' terminator) plus raw float64."""
    g = f.grid
    header = [
        "dims=" + ",".join(str(d) for d in g.dims),
        "origin=" + ",".join(repr(v) for v in g.origin),
        f"spacing={g.spacing!r}",
        f"kind={f.kind}",
        "end",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path):
    with open(path, "rb") as fh:
        header = {}
        while True:
            line = fh.readline()
            if not line:
                raise GridError(f"{path}: truncated field header")
            text = line.decode("ascii").strip()
            if text == "end":
                break
            if "=" not in text:
                raise GridError(f"{path}: malformed header line {text!r}")
            key, val = text.split("=", 1)
            header[key] = val
        try:
            dims = tuple(int(v) for v in header["dims"].split(","))
            origin = tuple(float(v) for v in header["origin"].split(","))
            spacing = float(header["spacing"])
            kind = header["kind"]
        except (KeyError, ValueError) as exc:
            raise GridError(f"{path}: bad field header: {exc}") from exc
        grid = GridSpec(origin, spacing, dims)
        raw = fh.read(8 * grid.n_nodes)
        if len(raw) != 8 * grid.n_nodes:
            raise GridError(f"{path}: truncated field payload")
        vals = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    return ScalarField(grid, vals, kind=kind)


def field_to_csv(f, path):
    """Plot-ready CSV: one node per row, coordinates then value."""
    g = f.grid
    pts = g.points()
    cols = "xyz"[:g.dim]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + ",value\n")
        flat = f.values.ravel()
        for p, v in zip(pts, flat):
            coords = ",".join(repr(c) for c in p)
            fh.write(f"{coords},{v!r}\n")
