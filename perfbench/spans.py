"""Spans around the calls into each sigma_eikonal module, installed from
outside the package.

``Tracer.install`` replaces every listed public function or method with a
wrapper that records one span per call: layer, name, start, end, parent
span, whether it raised, and a few work counts read off its arguments and
result.  A module-level function is rebound in every ``sigma_eikonal``
namespace that imported it, and in module-level dicts that hold it (the
``cli`` dispatch reads ``experiments.EXPERIMENTS``), so calls made through
``from .x import y`` bindings are seen too.  ``uninstall`` puts the
originals back, so untraced passes run the unmodified program.

Only entry points that a workload pass calls at most about 10^4 times are
wrapped: ``inner_ball_profile`` but not ``inner_ball_radius``,
``detect_multiproj`` but not its per-row helpers, and no ``contains`` or
``diameter``, which the bisection calls per step.  Private kernels are not
wrapped, so their time is the self time of the public function above them.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("geometry", "projection", "distance", "eikonal", "singular",
          "innerball", "experiments", "cli")

_SHAPES = ("ConvexPolytope", "OffsetBody", "Ball", "Ellipse", "Box",
           "GraphHypersurface", "SampledSurface")


def _nodes_of_points(args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs.get("points")
    return {"nodes": int(np.atleast_2d(pts).shape[0])}


def _samples_of_result(args, kwargs, result):
    return {"samples": int(result.points.shape[0])}


def _nodes_of_grid(args, kwargs, result):
    return {"nodes": int(args[1].n_nodes)}


def _mask_counts(args, kwargs, result):
    return {"nodes": int(result.flags.size),
            "classified": int(np.count_nonzero(~result.excluded)),
            "flags": int(result.n_flags)}


def _accepted(args, kwargs, result):
    return {"accepted": int(result.meta["accepted"])}


def _profile_counts(args, kwargs, result):
    return {"samples": int(result.radii.size),
            "capped": int(np.count_nonzero(result.radii >= result.r_max))}


# (layer, target, counter): a target is a module-level name or Class.method
TARGETS = [
    ("geometry", "make_random_polytope", None),
    ("geometry", "shape_from_spec", None),
    ("geometry", "ConvexPolytope.__init__", None),
    ("geometry", "OffsetBody.__init__", None),
    *[("geometry", f"{cls}.boundary_distance", _nodes_of_points)
      for cls in _SHAPES if cls != "GraphHypersurface"],
    *[("geometry", f"{cls}.boundary_sample", _samples_of_result)
      for cls in _SHAPES if cls != "SampledSurface"],
    ("projection", "project", None),
    ("projection", "default_tau_multi", None),
    ("distance", "grid_covering", None),
    ("distance", "GridSpec.points", None),
    ("distance", "distance_field", _nodes_of_grid),
    ("distance", "signed_distance_field", _nodes_of_grid),
    ("distance", "gradient_field", None),
    ("distance", "gradient_by_projection", None),
    ("distance", "write_field", None),
    ("eikonal", "problem_from_shape", None),
    ("eikonal", "fast_march", _accepted),
    ("eikonal", "residuals", None),
    ("eikonal", "write_residual_report", None),
    ("singular", "detect_multiproj", _mask_counts),
    ("singular", "detect_gradjump", _mask_counts),
    ("singular", "coverage_density", None),
    ("singular", "inclusion_violations", None),
    ("singular", "mask_agreement", None),
    ("singular", "SingularMask.distance_to_flags", None),
    ("singular", "SingularMask.save", None),
    ("innerball", "inner_ball_profile", _profile_counts),
    ("innerball", "uniform_condition_report", None),
    ("innerball", "theorem_equivalence_check", None),
    ("innerball", "normal_map_injectivity", None),
    ("experiments", "run_lemma_gradient", None),
    ("experiments", "run_offset_identity", None),
    ("experiments", "run_typical_density", None),
    ("experiments", "run_equivalence", None),
    ("experiments", "run_counterexample", None),
    ("cli", "main", None),
    ("cli", "build_parser", None),
    *[("cli", f"cmd_{name}", None) for name in
      ("shape", "distance", "eikonal", "singular", "innerball", "verify")],
]

# spans whose time counts as the singular layer's EDT work
EDT_NAMES = ("coverage_density", "inclusion_violations", "mask_agreement",
             "SingularMask.distance_to_flags")


class CoverageError(RuntimeError):
    """A layer the workload must reach recorded no span."""


class Tracer:
    """Span recorder; install() before a traced pass, uninstall() after."""

    def __init__(self, package):
        self._package = package
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._undo = []
        self.spans = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack \
                if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker thread: its caller is the main thread's open span
        main = self._main_stack
        return main[-1] if main else None

    def span(self, layer, name, fn, counter=None):
        """Wrap fn so that each call records one span."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = self._parent(stack)
            stack.append(sid)
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if error:
                    spans.append((sid, parent, layer, name, start, end,
                                  None, True))
            counts = counter(args, kwargs, result) if counter else None
            spans.append((sid, parent, layer, name, start, end, counts,
                          False))
            return result

        return traced

    def install(self):
        mods = {name: sys.modules[f"{self._package}.{name}"]
                for name in LAYERS}
        spaces = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == self._package
                                        or key.startswith(self._package + "."))]
        for layer, target, counter in TARGETS:
            owner = mods[layer]
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.span(layer, target, orig, counter))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, target)
            wrapped = self.span(layer, target, orig, counter)
            for space in spaces:
                for key, val in list(vars(space).items()):
                    if val is orig:
                        setattr(space, key, wrapped)
                        self._undo.append((space, key, orig))
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is orig:
                                val[dkey] = wrapped
                                self._undo.append((val, dkey, orig))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    def root(self, name, fn):
        """Run fn under a benchmark-level span, the parent of its calls."""
        return self.span("bench", name, fn)()

    def take(self):
        # the wrappers hold this list, so empty it in place
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _outermost(spans, by_id, match):
    """Spans that match and have no matching ancestor (no double counting)."""
    out = []
    for s in spans:
        if not match(s[3]):
            continue
        p = by_id.get(s[1])
        while p is not None and not match(p[3]):
            p = by_id.get(p[1])
        if p is None:
            out.append(s)
    return out


def _total(spans, key=None):
    if key is None:
        return sum(s[5] - s[4] for s in spans)
    return sum((s[6] or {}).get(key, 0) for s in spans)


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed by metric name.

    ``<layer>.self_s`` is the layer's span time minus the part of it that
    child spans cover; ``<layer>.spans`` is its span count (the coverage
    guard reads it).  Named stage times are inclusive durations of the
    outermost spans of those functions.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.spans"] = 0
        m[f"{layer}.errors"] = 0
    for sid, parent, layer, name, start, end, counts, error in spans:
        if layer not in LAYERS:
            continue
        kids = [(max(s, start), min(e, end))
                for s, e in children.get(sid, ()) if e > start and s < end]
        m[f"{layer}.self_s"] += (end - start) - _covered(kids)
        m[f"{layer}.spans"] += 1
        m[f"{layer}.errors"] += int(error)

    def top(*names):
        return _outermost(spans, by_id, lambda n: n in names)

    def top_suffix(suffix):
        return _outermost(spans, by_id, lambda n: n.endswith(suffix))

    ok = [s for s in spans if not s[7]]
    sample = [s for s in top_suffix(".boundary_sample") if not s[7]]
    m["geometry.sample_s"] = _total(sample)
    m["geometry.samples"] = _total(sample, "samples")
    bdist = [s for s in top_suffix(".boundary_distance") if not s[7]]
    m["geometry.boundary_distance_nodes_per_s"] = _rate(
        _total(bdist, "nodes"), _total(bdist))

    project = top("project")
    m["projection.project_calls"] = len(project)
    m["projection.project_us_per_call"] = 1e6 * _rate(_total(project),
                                                      len(project))

    fields = [s for s in top("distance_field", "signed_distance_field")
              if not s[7]]
    m["distance.field_calls"] = len(fields)
    m["distance.field_nodes_per_s"] = _rate(_total(fields, "nodes"),
                                            _total(fields))

    march = [s for s in top("fast_march") if not s[7]]
    m["eikonal.seed_s"] = _total(top("problem_from_shape"))
    m["eikonal.march_s"] = _total(march)
    m["eikonal.accepted_nodes"] = _total(march, "accepted")
    m["eikonal.march_nodes_per_s"] = _rate(m["eikonal.accepted_nodes"],
                                           m["eikonal.march_s"])
    m["eikonal.residual_s"] = _total(top("residuals"))

    multi = [s for s in top("detect_multiproj") if not s[7]]
    detect = [s for s in ok if s[3] in ("detect_multiproj",
                                        "detect_gradjump")]
    m["singular.multiproj_s"] = _total(multi)
    m["singular.multiproj_nodes_per_s"] = _rate(_total(multi, "nodes"),
                                                _total(multi))
    m["singular.classified_nodes"] = _total(detect, "classified")
    m["singular.flags"] = _total(detect, "flags")
    m["singular.gradjump_s"] = _total(top("detect_gradjump"))
    m["singular.edt_s"] = _total(top(*EDT_NAMES))

    prof = [s for s in top("inner_ball_profile") if not s[7]]
    m["innerball.profile_s"] = _total(prof)
    m["innerball.samples_per_s"] = _rate(_total(prof, "samples"),
                                         _total(prof))
    m["innerball.capped_frac"] = _rate(_total(prof, "capped"),
                                       _total(prof, "samples"))
    return m


def check_coverage(metrics, layers):
    """Raise CoverageError if a layer the workload must reach has no span."""
    missing = [layer for layer in layers if metrics[f"{layer}.spans"] == 0]
    if missing:
        raise CoverageError(
            "traced pass recorded no span for layer(s) "
            + ", ".join(missing)
            + "; a wrapper no longer sees the calls it should")
