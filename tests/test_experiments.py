"""Experiment configuration parsing and the driver registry."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sigma_eikonal import experiments
from sigma_eikonal.geometry import Box, _Cycle
from sigma_eikonal.experiments import (
    EXPERIMENTS,
    ROUGH_H,
    ExperimentConfig,
    ExperimentError,
    format_verdict,
    parse_fraction,
    parse_grid,
    rough_collar_equivalence,
)


def test_parse_fraction_accepts_ratios_and_decimals():
    assert parse_fraction("1/128") == pytest.approx(1.0 / 128)
    assert parse_fraction("0.015625") == pytest.approx(1.0 / 64)
    assert parse_fraction(" 1/4 ") == 0.25


def test_parse_fraction_rejects_nonpositive_and_garbage():
    with pytest.raises(ExperimentError):
        parse_fraction("0")
    with pytest.raises(ExperimentError):
        parse_fraction("-1/2")
    with pytest.raises((ExperimentError, ValueError)):
        parse_fraction("h")


def test_parse_grid_forms():
    assert parse_grid("1/64") == (pytest.approx(1.0 / 64), None)
    h, dims = parse_grid("0.05,40,60")
    assert h == pytest.approx(0.05)
    assert dims == (40, 60)
    with pytest.raises(ExperimentError):
        parse_grid("0.05,40")          # single dim is not a grid
    with pytest.raises(ExperimentError):
        parse_grid("")
    with pytest.raises(ExperimentError):
        parse_grid("1/16,abc")         # a node count int() cannot read


def test_config_round_trips_through_json():
    cfg = ExperimentConfig(seed=3, grid="1/32", rho_min=0.07,
                           shape={"kind": "ball", "center": [0.0, 0.0],
                                  "radius": 1.0},
                           t_values=[0.1, 0.2], quiet=True)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ExperimentError):
        ExperimentConfig.from_json(json.dumps({"sneed": 1}))


def test_config_rejects_the_unread_r_free_key():
    """No driver reads an r_free knob, so a config that sets one is
    refused, not silently ignored."""
    with pytest.raises(ExperimentError, match="r_free"):
        ExperimentConfig.from_json(json.dumps({"r_free": 0.3}))


def test_config_validates_grid_early():
    with pytest.raises(ExperimentError):
        ExperimentConfig(grid="zero")
    assert ExperimentConfig(grid="1/64").grid_h == pytest.approx(1.0 / 64)
    assert ExperimentConfig().grid_h is None


def test_config_save_and_load(tmp_path):
    cfg = ExperimentConfig(seed=9, out_dir=str(tmp_path))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert ExperimentConfig.from_json(path.read_text()) == cfg


def test_experiment_registry_names():
    assert set(EXPERIMENTS) == {
        "offset_identity",
        "lemma_gradient",
        "typical_density",
        "counterexample",
        "equivalence",
    }
    for fn in EXPERIMENTS.values():
        assert callable(fn)


def test_format_verdict_renders_types():
    text = format_verdict({"passed": True, "max_dev": 1.25e-13, "n": 4})
    assert "passed" in text
    assert "true" in text.lower()
    assert "4" in text


def test_one_term_collar_flags_trace_the_valley_ray():
    """On f(x) = cos(pi x) the singular set in the collar is the half-line
    x = 1 above the valley's centre of curvature (1, -1 + 1/pi^2).  The
    flags condition A reads follow it within a grid step, cover every
    classified node on it, and appear nowhere else."""
    chk, mask = rough_collar_equivalence(1)
    h = ROUGH_H
    grid = mask.grid
    x, y = np.moveaxis(grid.points().reshape(grid.dims + (2,)), -1, 0)
    focal = -1.0 + 1.0 / np.pi ** 2
    near_ray = (np.abs(x - 1.0) <= h) & (y >= focal - h)
    assert mask.flags.any()
    assert not (mask.flags & ~near_ray).any()
    on_ray = ~mask.excluded & (np.abs(x - 1.0) <= 0.5 * h) \
        & (y >= focal + h)
    assert on_ray.sum() >= 10
    assert (mask.distance_to_flags()[on_ray] <= h).all()
    # one term leaves room on both sides of the theorem
    assert chk.condition_a and chk.condition_b


# the experiment paths in a fresh interpreter: each polytope they build
# has a known inner ball, so none of them may load the LP solver
NO_LP_SCRIPT = """
import sys
from sigma_eikonal import experiments
from sigma_eikonal.distance import grid_covering
from sigma_eikonal.eikonal import fast_march, problem_from_shape
from sigma_eikonal.geometry import OffsetBody, make_random_polytope
from sigma_eikonal.singular import detect_multiproj

poly = make_random_polytope(8, 3)
make_random_polytope(12, 5, dim=3)
square = experiments._unit_square()
surface = OffsetBody(poly, 0.3).boundary_sample(0.05)
detect_multiproj(surface, grid_covering(surface, 0.1))
fast_march(problem_from_shape(square, grid_covering(square, 0.1)))
print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
"""


# the exact 2D paths through cli.main (the exact_convex benchmark ops):
# 2D polygons come from the half-plane ring, so neither the LP solver nor
# scipy.spatial (loaded only to build a kd-tree) may load
EXACT_2D_SCRIPT = """
import json, sys
from sigma_eikonal import cli

common = ["--seed", "3", "--out", sys.argv[1], "--quiet"]
for exp, grid in [("offset_identity", "1/20"), ("lemma_gradient", "1/32"),
                  ("typical_density", "1/20")]:
    cli.main(["verify", exp, "--grid", grid] + common)
spec = {"kind": "offset", "epsilon": 0.3,
        "base": {"kind": "random_polytope", "n_facets": 16, "seed": 3}}
cli.main(["innerball", "--shape", json.dumps(spec), "--spacing", "0.4",
          "--r-max", "0.5"] + common)
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.optimize", "scipy.spatial"))))
"""


# the march_3d benchmark ops on a 3D polytope and its offset: 3D vertices
# and facets come from the planes, so neither may load here either
MARCH_3D_SCRIPT = """
import sys
from sigma_eikonal.distance import distance_field, grid_covering
from sigma_eikonal.eikonal import fast_march, problem_from_shape
from sigma_eikonal.geometry import OffsetBody, make_random_polytope
from sigma_eikonal.singular import detect_gradjump

poly = make_random_polytope(32, 1, dim=3)
body = OffsetBody(poly, 0.3)
grid = grid_covering(body, 0.6)
for shape in (poly, body):
    distance_field(shape, grid)
    detect_gradjump(fast_march(problem_from_shape(shape, grid)))
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.optimize", "scipy.spatial"))))
"""


@pytest.mark.parametrize("script",
                         [NO_LP_SCRIPT, EXACT_2D_SCRIPT, MARCH_3D_SCRIPT],
                         ids=["experiments", "exact_2d_cli", "march_3d"])
def test_experiment_paths_do_not_load_the_lp_solver(script, tmp_path):
    src = Path(experiments.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_unit_square_is_the_box_polytope_bit_for_bit():
    """The square with its inner ball passed in is the LP-seeded box: the
    same arrays, bytes included, and the same cycle."""
    square = experiments._unit_square()
    box = Box((1.0, 1.0)).as_polytope()
    for got, want in [(square.vertices, box.vertices),
                      (square.normals, box.normals),
                      (square.offsets, box.offsets),
                      *[(getattr(square._cycle, k), getattr(box._cycle, k))
                        for k in _Cycle.__slots__]]:
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert square.diameter() == box.diameter()
    assert square.inradius() == box.inradius() == 1.0
    assert np.array_equal(square.chebyshev_center, box.chebyshev_center)
