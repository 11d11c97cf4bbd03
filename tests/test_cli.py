"""Command line entry point: exit codes, outputs, and file side effects."""

import argparse
import json

import pytest

from sigma_eikonal.cli import build_parser, main
from sigma_eikonal.distance import read_field
from sigma_eikonal.experiments import EXPERIMENTS
from sigma_eikonal.geometry import Ball, shape_from_spec
from sigma_eikonal.singular import SingularMask

DISK = json.dumps({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0})


def test_version_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_shape_summary(capsys):
    rc = main(["shape", "--shape", DISK])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ball" in out
    assert "inradius=1" in out


def test_missing_shape_is_config_error(capsys):
    rc = main(["shape"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_shape_json_is_config_error(capsys):
    rc = main(["shape", "--shape", "{not json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_grid_is_config_error(capsys):
    rc = main(["distance", "--shape", DISK, "--grid", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


INNERBALL = ["innerball", "--shape", DISK, "--spacing", "0.2"]
OFFSETS = ["verify", "offset_identity", "--grid", "1/16"]


@pytest.mark.parametrize("argv,config", [
    (INNERBALL + ["--t", "abc"], None),
    (INNERBALL + ["--t", "nan"], None),
    (["singular", "--shape", DISK, "--grid", "1/16,abc"], None),
    (["singular", "--shape", DISK, "--grid", "1/16"], {"tau_multi": "abc"}),
    (["singular", "--shape", DISK, "--grid", "1/16", "--detector",
      "gradjump"], {"theta_deg": "abc"}),
    (INNERBALL, {"rho_min": "abc"}),
    (INNERBALL, {"t_values": ["abc"]}),
    (OFFSETS, {"seed": "abc"}),
    (OFFSETS, {"seed": 1.5}),
    (["shape", "--shape", DISK], {"out_dir": 5}),
    (["shape", "--shape", DISK], {"quiet": "no"}),
], ids=["t=abc", "t=nan", "grid=1/16,abc", "config-tau_multi", "config-theta",
        "config-rho_min", "config-t_values", "config-seed=abc",
        "config-seed=1.5", "config-out_dir", "config-quiet"])
def test_unreadable_numbers_are_config_errors(argv, config, tmp_path, capsys):
    """A number float() or int() cannot read, a NaN offset, or a config
    file field of the wrong type prints an error line and exits 2 instead
    of raising."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_every_subcommand_runs_on_a_graph(tmp_path, capsys):
    """The grid covers the graph's measured sampling, which overhangs its
    window; only the signed distance, defined for convex bodies, fails."""
    graph = json.dumps({"kind": "graph", "alpha": 0.5, "base": 4,
                        "terms": 2, "window": [0.5, 1.5]})
    common = ["--shape", graph, "--grid", "1/32", "--out", str(tmp_path)]
    for sub in (["shape"], ["distance"], ["eikonal"], ["singular"],
                ["singular", "--detector", "gradjump"], ["innerball"]):
        assert main(sub + common) == 0, sub
    assert main(["distance", "--signed"] + common) == 2
    assert "convex" in capsys.readouterr().err


def test_distance_writes_field(tmp_path, capsys):
    rc = main(["distance", "--shape", DISK, "--grid", "1/16",
               "--out", str(tmp_path)])
    assert rc == 0
    fld = read_field(tmp_path / "distance.field")
    assert fld.kind == "distance"
    assert "min=" in capsys.readouterr().out


def test_signed_distance_flag(tmp_path):
    rc = main(["distance", "--shape", DISK, "--grid", "1/16", "--signed",
               "--out", str(tmp_path)])
    assert rc == 0
    fld = read_field(tmp_path / "signed_distance.field")
    assert fld.kind == "signed_distance"
    assert fld.values.min() < 0.0


def test_shape_file_round_trip(tmp_path):
    spec_path = tmp_path / "disk.json"
    spec_path.write_text(DISK)
    rc = main(["shape", "--shape-file", str(spec_path),
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "shape.json").exists()


def test_singular_writes_mask(tmp_path, capsys):
    square = json.dumps({"kind": "box", "extents": [1.0, 1.0]})
    rc = main(["singular", "--shape", square, "--grid", "1/32",
               "--out", str(tmp_path)])
    assert rc == 0
    mask = SingularMask.load(tmp_path / "mask_multiproj.bin")
    assert mask.n_flags > 0
    assert "flags" in capsys.readouterr().out


def test_singular_gradjump_detector(tmp_path):
    square = json.dumps({"kind": "box", "extents": [1.0, 1.0]})
    rc = main(["singular", "--shape", square, "--grid", "1/32",
               "--detector", "gradjump", "--out", str(tmp_path)])
    assert rc == 0
    mask = SingularMask.load(tmp_path / "mask_gradjump.bin")
    assert mask.detector == "gradjump"


def test_singular_3d_polytope_mask_has_no_flag_outside(tmp_path):
    spec = {"kind": "random_polytope", "n_facets": 32, "seed": 1, "dim": 3}
    rc = main(["singular", "--shape", json.dumps(spec), "--grid", "0.6",
               "--detector", "multiproj", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    mask = SingularMask.load(tmp_path / "mask_multiproj.bin")
    assert mask.grid.dim == 3
    poly = shape_from_spec(spec)
    assert not mask.flags.reshape(-1)[~poly.contains(mask.grid.points())].any()


def test_eikonal_writes_solution_and_residuals(tmp_path, capsys):
    rc = main(["eikonal", "--shape", DISK, "--grid", "1/32",
               "--out", str(tmp_path)])
    assert rc == 0
    fld = read_field(tmp_path / "eikonal.field")
    assert fld.kind == "eikonal_solution"
    assert (tmp_path / "residuals.txt").exists()


@pytest.mark.parametrize("spec", [
    json.loads(DISK),
    {"kind": "random_polytope", "n_facets": 32, "seed": 1, "dim": 3},
], ids=["ball", "polytope3d"])
def test_eikonal_evaluates_the_boundary_distance_once(spec, monkeypatch):
    """The march's seeds and the residual mask's band read one evaluation
    of the shape's boundary distance on the grid."""
    cls = type(shape_from_spec(spec))
    kernel = cls.boundary_distance
    calls = []

    def counting(self, points):
        calls.append(len(points))
        return kernel(self, points)

    monkeypatch.setattr(cls, "boundary_distance", counting)
    grid = "1/16" if spec["kind"] == "ball" else "0.6"
    rc = main(["eikonal", "--shape", json.dumps(spec), "--grid", grid,
               "--quiet"])
    assert rc == 0
    assert len(calls) == 1


def test_innerball_profile_csv(tmp_path, capsys):
    rc = main(["innerball", "--shape", DISK, "--spacing", "0.2",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "innerball_profile.csv").read_text()
    assert len(text.strip().splitlines()) > 10
    out = capsys.readouterr().out
    assert "overall=pass" in out


def test_innerball_t_reads_the_profile_samples(monkeypatch, capsys):
    """innerball --t tests the normal map on the samples the profile drew:
    the shape is sampled once, and an offset at or past the smallest
    radius is capped."""
    calls = []
    sample = Ball.boundary_sample
    monkeypatch.setattr(Ball, "boundary_sample",
                        lambda self, spacing: calls.append(spacing)
                        or sample(self, spacing))
    rc = main(["innerball", "--shape", DISK, "--spacing", "0.2",
               "--r-max", "2", "--t", "0.5,1.5"])
    assert rc == 0
    assert calls == [0.2]
    out = capsys.readouterr().out
    assert "t=0.5: injective" in out
    assert "t=1.5: capped" in out


def test_verify_offset_identity(tmp_path, capsys):
    rc = main(["verify", "offset_identity", "--grid", "1/32",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    verdict = (tmp_path / "verdict_offset_identity.txt").read_text()
    assert "passed=true" in verdict


def test_verify_error_keeps_traceback(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("stage exploded")

    monkeypatch.setitem(EXPERIMENTS, "offset_identity", boom)
    rc = main(["verify", "offset_identity", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "experiment=offset_identity" in err
    assert "failed_stage=RuntimeError: stage exploded" in err
    assert "Traceback" in err
    assert "in boom" in err


def test_verify_unknown_name_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "made_up_study"])
    assert exc.value.code == 2


def test_verify_lemma_gradient_on_a_coarse_grid_names_shape_and_step(
        tmp_path, capsys):
    """At h = 1/20 no node of the square lies 10h from both the boundary
    and the diagonal flags: a typed error naming the shape and h, not
    numpy's zero-size reduction."""
    rc = main(["verify", "lemma_gradient", "--grid", "1/20",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "failed_stage=ExperimentError: square:" in err
    assert "h=0.05" in err


def test_verify_rejects_grid_dims(tmp_path, capsys):
    """The experiments read only the grid step, so dims are refused."""
    rc = main(["verify", "offset_identity", "--grid", "1/20,9,9",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "verdict_offset_identity.txt").exists()


def test_config_file_feeds_defaults(tmp_path):
    cfg = {"grid": "1/16", "shape": json.loads(DISK),
           "out_dir": str(tmp_path), "quiet": True}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["distance", "--config", str(cfg_path)])
    assert rc == 0
    assert (tmp_path / "distance.field").exists()


def test_one_parser_serves_independent_calls(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; a quiet verify run leaves no
    flag behind for the next call, which parses into its own namespace."""
    seen = []
    parse = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        seen.append(parse(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    monkeypatch.setitem(EXPERIMENTS, "offset_identity",
                        lambda cfg: {"experiment": "offset_identity",
                                     "passed": True})
    rc = main(["verify", "offset_identity", "--quiet", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0 and capsys.readouterr().out == ""
    assert main(["shape", "--shape", DISK]) == 0
    assert "inradius=1" in capsys.readouterr().out
    first, second = seen
    assert first is not second and build_parser() is build_parser()
    assert (first.quiet, first.seed, first.experiment) == \
        (True, 3, "offset_identity")
    assert (second.quiet, second.seed, second.out) == (False, None, None)
    assert not hasattr(second, "experiment")
