"""Regular grids, distance and signed-distance fields, and gradients.

Fields live on axis-aligned grids with uniform spacing.  Node (i, j[, k])
sits at ``origin + spacing * index`` and values are stored in an array of
shape ``dims`` (C order, first axis is x).  Distance fields are evaluated
with the same exact kernels the projection module uses, so node values
equal ``project(shape, x).distance`` bit for bit for exact shapes and
agree to sampling accuracy for sampled surfaces.

Field files are a short ``key=value`` text header terminated by an ``end``
line, followed by raw little-endian float64 values in C order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import OffsetBody, _require, _row_blocks
from .projection import project

MAX_TOTAL_NODES = 2 ** 27
MIN_AXIS_NODES = 8
COVER_MARGIN_CELLS = 2          # required shape-to-grid margin, in cells
ZERO_DISTANCE_FACTOR = 1e-9     # gradient_by_projection's on-boundary
                                # distance, times diameter
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
        _require(origin, GridError, "grid origin must be finite")
        _require(self.spacing, GridError,
                 "grid spacing must be finite and positive", positive=True)
        if any(d < MIN_AXIS_NODES for d in dims):
            raise GridError(f"grids need at least {MIN_AXIS_NODES} nodes per axis")
        if self.n_nodes > MAX_TOTAL_NODES:
            raise GridError(f"grid with {self.n_nodes} nodes exceeds the "
                            f"{MAX_TOTAL_NODES} node budget")

    @property
    def dim(self):
        return len(self.dims)

    @property
    def n_nodes(self):
        return math.prod(self.dims)

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
        _require(point, GridError, f"point {tuple(point)} must be finite")
        idx = tuple(int(round((point[k] - self.origin[k]) / self.spacing))
                    for k in range(self.dim))
        if any(i < 0 or i >= self.dims[k] for k, i in enumerate(idx)):
            raise GridError(f"point {tuple(point)} is outside the grid")
        return idx

    def covers(self, lo, hi, margin):
        up = self.upper()
        return (all(lo[k] - margin >= self.origin[k] for k in range(self.dim))
                and all(hi[k] + margin <= up[k] for k in range(self.dim)))


def grid_covering(shape, spacing, margin=None):
    """Smallest snapped grid covering the shape with the required margin."""
    _require(spacing, GridError, "grid spacing must be finite and positive",
             positive=True)
    lo, hi = shape.bbox()
    if margin is None:
        margin = (COVER_MARGIN_CELLS + 1) * spacing
    if not 0 <= margin < math.inf:     # also rejects NaN
        raise GridError(f"grid margin must be finite and >= 0, got {margin}")
    lo = np.asarray(lo, dtype=float) - margin
    hi = np.asarray(hi, dtype=float) + margin
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


def _evaluate_chunked(fn, points):
    """fn over _row_blocks of points (cost 1), on thread_count() threads."""
    blocks = list(_row_blocks(points.shape[0], 1))
    if len(blocks) <= 1:
        return fn(points)
    out = np.empty(points.shape[0])
    workers = thread_count()
    if workers == 1:
        for rows in blocks:
            out[rows] = fn(points[rows])
        return out
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, points[rows]): rows for rows in blocks}
        for fut, rows in futures.items():
            out[rows] = fut.result()
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


def _node_distance(shape, grid):
    """The shape's boundary distance at every node of grid, flat in C node
    order, as a read-only array.

    The shape keeps the last grid's array in a one-entry memo keyed by the
    (frozen, hashable) GridSpec, so distance_field, problem_from_shape and
    detect_multiproj on one (shape, grid) evaluate the kernel once; a
    detector whose pass computes every node's distance stores it here
    (_remember_distance).  A 3D OffsetBody reads its base's entry and
    applies its offset formula, so a polytope and its offset on one grid
    also share one kernel run.  The array is read-only: a caller that
    keeps it must copy it or keep it read-only, never write into it.
    """
    memo = getattr(shape, "_node_memo", None)
    if memo is not None and memo[0] == grid:
        return memo[1]
    if isinstance(shape, OffsetBody) and shape.dim == 3:
        d = shape._from_base_distance(grid.points(),
                                      _node_distance(shape.base, grid))
    else:
        d = _evaluate_chunked(shape.boundary_distance, grid.points())
    return _remember_distance(shape, grid, d)


def _remember_distance(shape, grid, d):
    """Make d, shape's boundary distance at grid's nodes, the read-only
    entry of its (shape, grid) memo, and return it."""
    d = np.asarray(d, dtype=float)
    d.flags.writeable = False
    shape._node_memo = (grid, d)
    return d


def distance_field(shape, grid, check_cover=True):
    """Distance to the shape boundary at every grid node."""
    _require_coverage(shape, grid, check_cover)
    vals = _node_distance(shape, grid).reshape(grid.dims).copy()
    return ScalarField(grid, vals, kind="distance")


def signed_distance_field(shape, grid, check_cover=True):
    """Positive inside the enclosed body, negative outside (convex only)."""
    if not getattr(shape, "is_convex", False):
        raise GridError("signed distance is defined here for convex bodies only")
    _require_coverage(shape, grid, check_cover)
    dist = _node_distance(shape, grid)
    signed = np.where(shape.contains(grid.points()), dist, -dist)
    return ScalarField(grid, signed.reshape(grid.dims), kind="signed_distance")


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def gradient_by_projection(shape, x, tau_multi=None):
    """Gradient of the boundary distance via (x - nearest) / distance.

    Raises SingularPointError when the nearest point is not unique and
    ZeroDistanceError on the boundary itself (within ZERO_DISTANCE_FACTOR
    times the diameter), where the formula degenerates.
    """
    res = project(shape, x, tau_multi)
    if res.distance <= ZERO_DISTANCE_FACTOR * shape.diameter():
        raise ZeroDistanceError("zero distance: x lies on the boundary")
    if not res.is_singleton:
        raise SingularPointError(
            f"singular point: {res.nearest.shape[0]} nearest points, "
            f"spread {res.spread:.3g}")
    x = np.asarray(x, dtype=float)
    return (x - res.nearest[0]) / res.distance


def gradient_field(field):
    """Componentwise np.gradient of the whole field: central differences
    inside, one-sided ones on the grid rim."""
    grads = np.gradient(field.values, field.grid.spacing)
    return np.stack(grads, axis=-1)


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------

def _write_file(path, grid, payload, head=(), tail=()):
    """Write a field or mask file: the key=value lines head, the grid's
    dims, origin and spacing, tail and 'end', then the payload bytes."""
    lines = [*head, "dims=" + ",".join(str(d) for d in grid.dims),
             "origin=" + ",".join(repr(v) for v in grid.origin),
             f"spacing={grid.spacing!r}", *tail, "end", ""]
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("ascii"))
        fh.write(payload)


def write_field(f, path):
    """Write header (key=value lines, 'end' terminator) plus raw float64."""
    _write_file(path, f.grid,
                np.ascontiguousarray(f.values, dtype="<f8").tobytes(),
                tail=[f"kind={f.kind}"])


def _read_header(fh, path, error):
    """(header, grid): the key=value lines of a field or mask file up to
    its 'end' line, and the GridSpec of their dims, origin and spacing.
    A truncated, malformed or incomplete header raises error."""
    header = {}
    while True:
        line = fh.readline()
        if not line:
            raise error(f"{path}: truncated header")
        text = line.decode("ascii", "replace").strip()
        if text == "end":
            break
        if "=" not in text:
            raise error(f"{path}: malformed header line {text!r}")
        key, val = text.split("=", 1)
        header[key] = val
    try:
        grid = GridSpec(tuple(float(v) for v in header["origin"].split(",")),
                        float(header["spacing"]),
                        tuple(int(v) for v in header["dims"].split(",")))
    except (KeyError, ValueError) as exc:
        raise error(f"{path}: bad header: {exc!r}") from exc
    return header, grid


def read_field(path):
    with open(path, "rb") as fh:
        header, grid = _read_header(fh, path, GridError)
        raw = fh.read(8 * grid.n_nodes)
    if len(raw) != 8 * grid.n_nodes:
        raise GridError(f"{path}: truncated field payload")
    vals = np.frombuffer(raw, dtype="<f8").reshape(grid.dims).copy()
    # ScalarField raises GridError on a missing or unknown kind
    return ScalarField(grid, vals, kind=header.get("kind"))
