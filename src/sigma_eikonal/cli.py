"""Command line surface: shapes, fields, marching, detection, inner balls,
and the five verification experiments.

Exit codes: 0 success / experiment passed, 1 experiment failed or errored
mid-run, 2 usage or configuration problem.  The environment variable
SIGMA_EIKONAL_THREADS caps internal parallelism (see the distance module).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

import numpy as np

from . import __version__
from .distance import (
    GridError,
    GridSpec,
    distance_field,
    grid_covering,
    signed_distance_field,
    write_field,
)
from .eikonal import EikonalError, fast_march, problem_from_shape, residuals, \
    write_residual_report
from .experiments import (
    EXPERIMENTS,
    GRAPH_PAD,
    ExperimentConfig,
    ExperimentError,
    format_verdict,
    parse_grid,
    write_verdict,
)
from .geometry import GeometryError, GraphHypersurface, SampledSurface, \
    load_shape, save_shape, shape_from_spec
from .innerball import InnerBallError, normal_map_injectivity, \
    uniform_condition_report
from .projection import ProjectionError
from .singular import DEFAULT_THETA_DEG, DetectionError, detect_gradjump, \
    detect_multiproj

PASS, FAIL, USAGE = 0, 1, 2
DEFAULT_H = 1.0 / 64

_CONFIG_ERRORS = (ExperimentError, GeometryError, GridError, EikonalError,
                  DetectionError, InnerBallError, ProjectionError,
                  json.JSONDecodeError, OSError)


def _say(cfg, *lines):
    if not cfg.quiet:
        for line in lines:
            print(line)


def _build_config(args):
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = ExperimentConfig()
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.grid is not None:
        parse_grid(args.grid)
        cfg.grid = args.grid
    if args.quiet:
        cfg.quiet = True
    return cfg


def _out_path(cfg, name):
    base = cfg.out_dir or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _resolve_shape(args, cfg):
    if getattr(args, "shape_file", None):
        return load_shape(args.shape_file)
    spec = None
    if getattr(args, "shape", None):
        spec = json.loads(args.shape)
    elif cfg.shape is not None:
        spec = cfg.shape
    if spec is None:
        raise ExperimentError(
            "no shape given; pass --shape JSON, --shape-file PATH, or set "
            "shape in the config")
    if isinstance(spec, dict) and "file" in spec and "kind" not in spec:
        return load_shape(spec["file"])
    return shape_from_spec(spec)


def _measured(shape, spacing):
    """Shape with bulk exact distance; graphs fall back to a sampling at
    the given spacing."""
    if isinstance(shape, GraphHypersurface):
        return shape.boundary_sample(spacing, pad=GRAPH_PAD)
    return shape


def _measured_grid(args, cfg):
    """(measured, grid): the shape, measured at half the grid step, and the
    grid covering it.  A graph's sampling overhangs its window, so the grid
    covers the sampling, not the window."""
    h, dims = (DEFAULT_H, None) if cfg.grid is None else parse_grid(cfg.grid)
    measured = _measured(_resolve_shape(args, cfg), 0.5 * h)
    grid = grid_covering(measured, h)
    if dims is not None:
        grid = GridSpec(grid.origin, h, dims)
    return measured, grid


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_shape(args, cfg):
    shape = _resolve_shape(args, cfg)
    for key, val in shape.summary().items():
        _say(cfg, f"{key}={val}")
    if cfg.out_dir:
        path = _out_path(cfg, "shape.json")
        save_shape(shape, path)
        _say(cfg, f"written={path}")
    return PASS


def cmd_distance(args, cfg):
    measured, grid = _measured_grid(args, cfg)
    if args.signed:
        fld = signed_distance_field(measured, grid)
    else:
        fld = distance_field(measured, grid)
    _say(cfg,
         f"kind={fld.kind}",
         f"nodes={int(np.prod(grid.dims))}",
         f"h={grid.spacing!r}",
         f"min={fld.values.min():.9g}",
         f"max={fld.values.max():.9g}")
    if cfg.out_dir:
        path = _out_path(cfg, f"{fld.kind}.field")
        write_field(fld, path)
        _say(cfg, f"written={path}")
    return PASS


def cmd_eikonal(args, cfg):
    measured, grid = _measured_grid(args, cfg)
    # detect first: a pass that computes every node's distance leaves it
    # in the memo that seeds the march
    mask = detect_multiproj(measured, grid, tau_multi=cfg.tau_multi)
    problem = problem_from_shape(measured, grid)
    sol = fast_march(problem)
    rep = residuals(sol, singular_mask=mask)
    _say(cfg,
         f"nodes={int(np.prod(grid.dims))}",
         f"seeds={len(problem.seeds)}",
         f"max={sol.values[np.isfinite(sol.values)].max():.9g}",
         *rep.summary_lines())
    if cfg.out_dir:
        fpath = _out_path(cfg, "eikonal.field")
        write_field(sol, fpath)
        rpath = _out_path(cfg, "residuals.txt")
        write_residual_report(rep, rpath)
        _say(cfg, f"written={fpath}", f"written={rpath}")
    return PASS


def cmd_singular(args, cfg):
    measured, grid = _measured_grid(args, cfg)
    if args.detector == "multiproj":
        mask = detect_multiproj(measured, grid, tau_multi=cfg.tau_multi)
    else:
        fld = distance_field(measured, grid)
        theta = (cfg.theta_deg if cfg.theta_deg is not None
                 else DEFAULT_THETA_DEG)
        mask = detect_gradjump(fld, theta_deg=theta)
    for key, val in mask.summary().items():
        _say(cfg, f"{key}={val}")
    if cfg.out_dir:
        path = _out_path(cfg, f"mask_{args.detector}.bin")
        mask.save(path)
        _say(cfg, f"written={path}")
    return PASS


def cmd_innerball(args, cfg):
    shape = _resolve_shape(args, cfg)
    spacing = args.spacing if args.spacing is not None else 0.02
    rho_min = cfg.rho_min if cfg.rho_min is not None else 0.05
    r_max = args.r_max if args.r_max is not None else 4.0 * rho_min
    probe = _measured(shape, spacing)
    report = uniform_condition_report(probe, spacing, rho_min, r_max=r_max)
    for line in report.summary_lines():
        _say(cfg, line)
    if cfg.out_dir:
        path = _out_path(cfg, "innerball_profile.csv")
        report.profile.to_csv(path)
        _say(cfg, f"written={path}")
    t_values = cfg.t_values or []
    if args.t:
        try:
            t_values = [float(v) for v in args.t.split(",")]
        except ValueError as exc:
            raise ExperimentError(f"cannot parse --t {args.t!r}") from exc
    if t_values:
        prof = report.profile
        surface = SampledSurface(prof.points, prof.normals, spacing)
        inj = normal_map_injectivity(surface, t_values,
                                     rho_cap=prof.min_radius)
        for line in inj.summary_lines():
            _say(cfg, line)
    return PASS


def cmd_verify(args, cfg):
    name = args.experiment
    if cfg.grid is not None and parse_grid(cfg.grid)[1] is not None:
        raise ExperimentError(f"verify reads only a grid step, got dims in "
                              f"{cfg.grid!r}")
    try:
        report = EXPERIMENTS[name](cfg)
    except Exception as exc:
        print(f"experiment={name}", file=sys.stderr)
        print(f"failed_stage={type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return FAIL
    text = format_verdict(report)
    if not cfg.quiet:
        sys.stdout.write(text)
    path = _out_path(cfg, f"verdict_{name}.txt")
    write_verdict(report, path)
    _say(cfg, f"written={path}")
    return PASS if report.get("passed") else FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The command line parser, built once per process: parse_args leaves
    it as it was and gives every call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sigma-eikonal",
        description="Distance fields, singular-set detection, and "
                    "inner-ball diagnostics.",
        epilog="SIGMA_EIKONAL_THREADS caps internal parallelism.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config file")
    common.add_argument("--out", help="output directory for artifacts")
    common.add_argument("--seed", type=int, help="seed for generated shapes")
    common.add_argument("--grid", help="grid step 'h' or 'h,n1,n2[,n3]'")
    common.add_argument("--quiet", action="store_true",
                        help="suppress console output")
    shape_opts = argparse.ArgumentParser(add_help=False)
    shape_opts.add_argument("--shape", help="inline shape spec JSON")
    shape_opts.add_argument("--shape-file", help="shape spec file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shape", parents=[common, shape_opts],
                       help="validate, summarize, and serialize a shape")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("distance", parents=[common, shape_opts],
                       help="evaluate the boundary distance on a grid")
    p.add_argument("--signed", action="store_true",
                   help="signed variant (positive inside, convex only)")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("eikonal", parents=[common, shape_opts],
                       help="fast marching solve seeded at the boundary")
    p.set_defaults(func=cmd_eikonal)

    p = sub.add_parser("singular", parents=[common, shape_opts],
                       help="detect nodes with multiple nearest points")
    p.add_argument("--detector", choices=("multiproj", "gradjump"),
                   default="multiproj")
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("innerball", parents=[common, shape_opts],
                       help="inner ball profile and patch verdicts")
    p.add_argument("--spacing", type=float, help="boundary sample spacing")
    p.add_argument("--r-max", type=float, help="inner ball search cap")
    p.add_argument("--t", help="comma list of normal map offsets to test")
    p.set_defaults(func=cmd_innerball)

    p = sub.add_parser("verify", parents=[common],
                       help="run one named verification experiment")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        return args.func(args, cfg)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
