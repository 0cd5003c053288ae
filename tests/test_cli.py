import ast
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepgp_lab
from deepgp_lab import cli, funcspace, inference, prior, rates, structure, verify
from deepgp_lab.errors import ValidationError
from reference import path_from_dict


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def payload(command, **kw):
    """A small valid config for each command; kw overrides top-level fields."""
    g = structure.CompositionGraph(1, [[(1,)]])
    eta = structure.CompositionStructure(graph=g, betas=(1.0,), bounds=(0.5, 1.0))
    space = {"input_dim": 1, "max_q": 1, "max_width": 1, "beta_bounds": [0.5, 1.0]}
    fit = {"space": space, "family": "wavelet", "n": 100, "beta_grid": [1.0],
           "truth": {"type": "zero"},
           "posterior": {"iterations": 60, "pcn_step": 0.8,
                         "structure_move_prob": 0.1, "burn_in": 0.5}}
    base = {
        "rates": {"structure": structure.structure_to_dict(eta), "family": "wavelet",
                  "n_list": [100, 1000, 10000]},
        "sample": {"family": "wavelet", "beta": 1.0, "r": 1, "n": 256, "count": 3},
        "prior": {"space": space, "family": "wavelet", "n": 200,
                  "beta_grid": [0.5, 1.0], "draws": 2},
        "fit": fit,
        "diagnose": dict(fit, n_list=[100, 200]),
    }[command]
    return {"schema_version": 1, **base, **kw}


def config(tmp_path, command, **kw):
    return write_config(tmp_path, f"{command}.json", payload(command, **kw))


def run_fresh(code, timeout=120):
    """Run `code` in a new interpreter that imports the package from this source."""
    src = pathlib.Path(deepgp_lab.__file__).parent.parent
    subprocess.run([sys.executable, "-c", code], check=True, timeout=timeout,
                   env=dict(os.environ, PYTHONPATH=str(src)))


class TestExitCodes:
    def test_rates_success(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["rates", "--config", config(tmp_path, "rates"),
                         "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "rates.csv"))
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_missing_config_flag(self, capsys):
        assert cli.main(["rates"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"

    def test_missing_config_file(self, capsys):
        assert cli.main(["rates", "--config", "/nonexistent.json"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["rates", "--config", str(p)]) == 1

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = config(tmp_path, "sample", bogus_field=1)
        assert cli.main(["sample", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "bogus_field" in err["detail"]

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = config(tmp_path, "sample", schema_version=99)
        assert cli.main(["sample", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1

    def test_numeric_failure_exit_2(self, tmp_path, capsys):
        # at n = 1e12 a stationary path's 33 nodes are nearly independent, so
        # sup <= 1 almost never holds and rejection sampling exhausts its budget
        cfg = config(tmp_path, "sample", family="stationary", n=10**12, count=1,
                     conditioned=True)
        assert cli.main(["sample", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "numeric"

    @pytest.mark.parametrize("command, edit, named", [
        pytest.param("fit", lambda c: c["posterior"].update(iters=5), "iters",
                     id="posterior-unknown"),
        pytest.param("fit", lambda c: c["posterior"].update(chains=4), "chains",
                     id="posterior-chains"),
        pytest.param("fit", lambda c: c.update(profile={"radius": 1.0}), "radius",
                     id="profile-unknown"),
        pytest.param("prior", lambda c: c["space"].update(depth=2), "depth",
                     id="space-unknown"),
        pytest.param("prior", lambda c: c.pop("n"), "missing prior config fields: ['n']",
                     id="top-missing"),
        pytest.param("prior", lambda c: c["space"].pop("max_q"),
                     "missing space fields: ['max_q']", id="space-missing"),
        pytest.param("fit", lambda c: c["truth"].pop("type"),
                     "missing truth fields: ['type']", id="truth-missing"),
        pytest.param("rates", lambda c: c["structure"].pop("betas"),
                     "missing structure fields: ['betas']", id="structure-missing"),
        pytest.param("fit", lambda c: c.update(family="fbm"), "beta_grid",
                     id="fbm-default-beta-grid"),
        pytest.param("fit", lambda c: c.update(family="stationary", beta_grid=[0.5],
                                               space=dict(c["space"], max_width=3)),
                     "space.max_width", id="grid-family-width"),
        pytest.param("prior", lambda c: c.update(family="stationary", beta_grid=[1.0],
                                                 space=dict(c["space"], max_width=1000)),
                     "space.max_width = 1000: grid families support r in {1, 2}",
                     id="grid-family-width-past-the-horizon"),
        pytest.param("sample", lambda c: c.update(family="foo"), "family",
                     id="sample-unknown-family"),
        pytest.param("sample", lambda c: c.update(profile={"holder_radius": 100.0}),
                     "profile", id="sample-profile"),
        pytest.param("prior", lambda c: c.update(n="abc"), "n must be an integer",
                     id="n-not-numeric"),
        pytest.param("prior", lambda c: c.update(n=3.7), "n must be an integer",
                     id="n-not-integral"),
        pytest.param("prior", lambda c: c.update(draws=2.5), "draws", id="draws-not-integral"),
        pytest.param("prior", lambda c: c["space"].update(max_q=1.5), "space.max_q",
                     id="space-not-integral"),
        pytest.param("fit", lambda c: c["posterior"].update(iterations=2.5),
                     "posterior.iterations", id="iterations-not-integral"),
        pytest.param("sample", lambda c: c.update(count=True), "count", id="count-bool"),
        pytest.param("sample", lambda c: c.update(r=5), "capped at", id="sample-r5-grid"),
        pytest.param("sample", lambda c: c.update(r=4, conditioned=True, grid=40),
                     "grid=40", id="sample-conditioning-grid"),
        pytest.param("sample", lambda c: c.update(r=3, beta=0.5, n=2**23),
                     "129^r grid points", id="sample-wavelet-knot-grid"),
        pytest.param("rates", lambda c: c.update(n_list=[100, "1e3"]), "n_list",
                     id="n-list-not-numeric"),
        pytest.param("rates", lambda c: c.update(n_list=100), "n_list must be a list",
                     id="n-list-not-a-list"),
        pytest.param("sample", lambda c: c.update(beta="abc"), "beta must be a number",
                     id="beta-not-numeric"),
        pytest.param("sample", lambda c: c.update(beta=[1]), "beta must be a number",
                     id="beta-list"),
        pytest.param("sample", lambda c: c.update(k_prime=2.0),
                     "unknown sample config fields: ['k_prime']", id="k-prime-unknown"),
        pytest.param("sample", lambda c: c.update(grid=33), "grid=33", id="wavelet-grid"),
        pytest.param("sample", lambda c: c.update(conditioned="no"),
                     "conditioned must be true or false", id="conditioned-string"),
        pytest.param("prior", lambda c: c.update(profile={"holder_radius": "x"}),
                     "profile.holder_radius", id="profile-string"),
        pytest.param("prior", lambda c: c.update(beta_grid=["x"]), "beta_grid",
                     id="beta-grid-string"),
        pytest.param("prior", lambda c: c.update(beta_grid=1.0), "beta_grid must be a list",
                     id="beta-grid-not-a-list"),
        pytest.param("prior", lambda c: c["space"].update(beta_bounds=["a", 1]),
                     "space.beta_bounds", id="beta-bounds-string"),
        pytest.param("prior", lambda c: c["space"].update(beta_bounds=[0.5]),
                     "space.beta_bounds", id="beta-bounds-length"),
        pytest.param("prior", lambda c: c["space"].update(beta_bounds=[1.0, 0.5]),
                     "space.beta_bounds must be [low, high] with 0 < low <= high",
                     id="beta-bounds-reversed"),
        pytest.param("rates", lambda c: c["structure"].update(beta_bounds=[0.5]),
                     "structure.beta_bounds", id="structure-beta-bounds-short"),
        pytest.param("rates", lambda c: c["structure"].update(beta_bounds=[0.5, 1.0, 2.0]),
                     "structure.beta_bounds", id="structure-beta-bounds-long"),
        pytest.param("rates", lambda c: c.update(family="fbm"),
                     "structure.betas [1.0]: fBM requires beta in (0, 1)",
                     id="rates-fbm-beta-one"),
        pytest.param("fit", lambda c: c.update(n=1e20), "n = 100000000000000000000",
                     id="fit-n-past-intp"),
        pytest.param("diagnose", lambda c: c.update(n_list=[200, 1e20]),
                     "n_list = 100000000000000000000", id="diagnose-n-list-past-intp"),
        # numpy refuses an array of more bytes than its largest index before it
        # allocates, so none of these allocates anything
        pytest.param("fit", lambda c: c.update(n=2**62), "n = 4611686018427387904",
                     id="fit-n-bytes-past-intp"),
        pytest.param("fit", lambda c: c.update(n=2**59, space=dict(c["space"], input_dim=2)),
                     "n = 576460752303423488 points of space.input_dim = 2",
                     id="fit-design-bytes-past-intp"),
        pytest.param("diagnose", lambda c: c.update(n_list=[200, 2**62]),
                     "n_list = 4611686018427387904", id="diagnose-n-list-bytes-past-intp"),
        pytest.param("fit", lambda c: c["posterior"].update(iterations=1e20),
                     "posterior.iterations", id="fit-iterations-past-intp"),
        pytest.param("fit", lambda c: c["posterior"].update(iterations=2**62),
                     "posterior.iterations", id="fit-iterations-bytes-past-intp"),
        pytest.param("diagnose", lambda c: c["posterior"].update(iterations=2**62),
                     "posterior.iterations", id="diagnose-iterations-bytes-past-intp"),
        pytest.param("fit", lambda c: c["posterior"].update(pcn_step="0.5"),
                     "posterior.pcn_step", id="pcn-step-string"),
        pytest.param("fit", lambda c: c["posterior"].update(prior_only=1),
                     "posterior.prior_only", id="prior-only-int"),
        pytest.param("diagnose", lambda c: c.update(C="2"), "C must be a number",
                     id="diagnose-c-string"),
        pytest.param("sample", lambda c: c.update(beta=-0.5), "beta must be > 0",
                     id="wavelet-beta-negative"),
        pytest.param("sample", lambda c: c.update(beta=0), "beta must be > 0",
                     id="wavelet-beta-zero"),
        pytest.param("sample", lambda c: c.update(beta=-1), "beta must be > 0",
                     id="wavelet-beta-minus-one"),
        pytest.param("sample", lambda c: c.update(beta=-3), "beta must be > 0",
                     id="wavelet-beta-minus-three"),
        pytest.param("sample", lambda c: c.update(beta=float("nan")), "beta must be finite",
                     id="wavelet-beta-nan"),
        pytest.param("sample", lambda c: c.update(beta=float("inf")), "beta must be finite",
                     id="beta-infinite"),
        pytest.param("prior", lambda c: c.update(profile={"holder_radius": float("inf")}),
                     "profile.holder_radius must be finite", id="profile-infinite"),
        pytest.param("prior", lambda c: c.update(profile={"holder_radius": 1e300}),
                     "profile.holder_radius = 1e+300", id="profile-huge-holder-radius"),
        pytest.param("prior", lambda c: c.update(family="stationary",
                                                 profile={"spectral_c": 1e300}),
                     "profile.spectral_c = 1e+300", id="profile-huge-spectral-c"),
        pytest.param("rates", lambda c: c.update(profile={"holder_radius": 1e300}),
                     "profile.holder_radius = 1e+300", id="rates-profile-huge-holder-radius"),
        pytest.param("rates", lambda c: c.update(family="stationary",
                                                 profile={"spectral_c": 1e300}),
                     "profile.spectral_c = 1e+300", id="rates-profile-huge-spectral-c"),
        pytest.param("sample", lambda c: c.update(family="stationary", beta=-1),
                     "beta must be > 0", id="stationary-beta-negative"),
        pytest.param("rates", lambda c: c["structure"].update(betas=["x"]),
                     "structure.betas", id="structure-betas-string"),
        pytest.param("rates", lambda c: c["structure"].update(dims=["a", 1]),
                     "structure.dims", id="structure-dims-string"),
        pytest.param("rates", lambda c: c["structure"].update(active_sets=[[["x"]]]),
                     "structure.active_sets", id="structure-active-sets-string"),
        pytest.param("rates", lambda c: c["structure"].update(beta_bounds=[0.5, "y"]),
                     "structure.beta_bounds", id="structure-beta-bounds-string"),
        pytest.param("rates", lambda c: c["structure"].update(q=0.5),
                     "structure.q must be an integer", id="structure-q-not-integral"),
        pytest.param("rates", lambda c: c["structure"].update(eff_dims=[2, 1]),
                     "eff_dims = [2, 1], but dims[0] and active_sets give [1, 1]",
                     id="structure-eff-dims-not-derived"),
        pytest.param("rates", lambda c: c["structure"].update(active_sets=[[[2]]]),
                     "S_01 has index outside [1, d_0=1]", id="structure-set-outside-inputs"),
        pytest.param("prior", lambda c: c.update(
            family="stationary", beta_grid=[2.5],
            space=dict(c["space"], beta_bounds=[0.5, 3.0])), "beta_grid",
            id="stationary-beta-grid-above-two"),
        pytest.param("sample", lambda c: c.update(family="stationary", beta=2.5,
                                                  conditioned=True),
                     "beta = 2.5", id="conditioned-stationary-beta-above-two"),
        pytest.param("sample", lambda c: c.update(count=-2), "count must be >= 1",
                     id="sample-count-negative"),
        pytest.param("sample", lambda c: c.update(count=0), "count must be >= 1",
                     id="sample-count-zero"),
        pytest.param("prior", lambda c: c.update(draws=-3), "draws must be >= 0",
                     id="prior-draws-negative"),
        pytest.param("rates", lambda c: c.update(n_list=[]), "n_list must not be empty",
                     id="rates-n-list-empty"),
        pytest.param("diagnose", lambda c: c.update(n_list=[]), "n_list must not be empty",
                     id="diagnose-n-list-empty"),
        pytest.param("diagnose", lambda c: c.update(C=-1), "C must be > 0",
                     id="diagnose-c-negative"),
        pytest.param("diagnose", lambda c: c.update(C=0), "C must be > 0",
                     id="diagnose-c-zero"),
        pytest.param("fit", lambda c: c["posterior"].update(seed=-3),
                     "posterior.seed must be >= 0", id="posterior-seed-negative"),
        pytest.param("diagnose", lambda c: c["posterior"].update(seed=-3),
                     "posterior.seed must be >= 0", id="diagnose-posterior-seed-negative"),
        pytest.param("fit", lambda c: c.update(truth={"type": "prior_draw", "seed": -5}),
                     "truth.seed must be >= 0", id="truth-seed-negative"),
        pytest.param("prior", lambda c: c.update(
            space={"input_dim": 1, "max_q": 4, "max_width": 1},
            beta_grid=list(np.linspace(0.5, 1.0, 12))), "exceeds count limit",
            id="space-too-large"),
        pytest.param("diagnose", lambda c: c.update(n_list=[200, 200]),
                     "n_list must be strictly increasing", id="diagnose-n-list-repeated"),
        pytest.param("prior", lambda c: c.update(beta_grid=[0.5, 0.5],
                                                 space=dict(c["space"], max_q=0)),
                     "beta_grid [0.5, 0.5] repeats the value 0.5", id="beta-grid-repeated"),
        # no structure with |d|_1 <= 6 has so many inputs; the checks over every
        # layer width up to input_dim must not run first
        *(pytest.param("prior", lambda c, d=d: c.update(beta_grid=[1.0], space=dict(
            c["space"], input_dim=d, max_q=0)), "no admissible structure in the space "
            "with |d|_1 <= 6", id=f"space-without-prior-mass-{d}") for d in (6, 200)),
        # three inputs and one output make |d|_1 = 4: past max_nodes, though within 6
        pytest.param("prior", lambda c: c.update(beta_grid=[1.0], space=dict(
            c["space"], input_dim=3, max_nodes=3)), "no admissible structure in the space "
            "with |d|_1 <= 3 (space.max_nodes = 3)", id="space-without-prior-mass-max-nodes"),
        # a field that the command reads nowhere is refused, not ignored
        pytest.param("prior", lambda c: c.update(profile={"spectral_d": 2.0}),
                     "profile fields ['spectral_d'] do nothing for the wavelet family, "
                     "which reads ['besov_radius', 'holder_radius']",
                     id="profile-unread-wavelet"),
        pytest.param("fit", lambda c: c.update(family="stationary", profile={
            "holder_radius": 2.0, "besov_radius": 2.0, "fbm_rkhs": 2.0}),
                     "profile fields ['besov_radius', 'fbm_rkhs'] do nothing for the "
                     "stationary family", id="profile-unread-stationary"),
        pytest.param("rates", lambda c: c.update(family="fbm", profile={"spectral_c": 2.0}),
                     "profile fields ['spectral_c'] do nothing for the fbm family",
                     id="profile-unread-fbm"),
        *(pytest.param(command, lambda c: c["truth"].update(seed=3),
                       'truth.seed does nothing with truth.type "zero"',
                       id=f"{command}-truth-seed-with-zero") for command in ("fit", "diagnose")),
        # a family's resolution or scale takes log n, so n < 2 is refused at the
        # spec, even by fbm, whose unconditioned law does not read n
        *(pytest.param("sample", lambda c, n=n: c.update(family="stationary", n=n),
                       f"n must be >= 2, got {n}", id=f"stationary-n-{n}") for n in (1, 0, -5)),
        pytest.param("sample", lambda c: c.update(family="fbm", beta=0.5, n=1),
                     "n must be >= 2, got 1", id="fbm-n-1"),
        # an n_list entry below the rates' least n is named as one, not as n
        pytest.param("rates", lambda c: c.update(n_list=[2, 100]),
                     "n_list entry 2 must be >= 3", id="rates-n-list-entry-below-3"),
        pytest.param("diagnose", lambda c: c.update(n=200, n_list=[2, 100]),
                     "n_list entry 2 must be >= 3", id="diagnose-n-list-entry-below-3"),
    ])
    def test_config_mistake_is_a_validation_error(self, tmp_path, capsys, command,
                                                  edit, named):
        cfg = payload(command)
        edit(cfg)
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert named in err["detail"]
        assert not (tmp_path / "o").exists()  # rejected before any output is written

    @pytest.mark.parametrize("command", ["sample", "prior", "fit"])
    def test_negative_seed_is_a_validation_error(self, tmp_path, capsys, command):
        # numpy's SeedSequence takes no negative entropy: reject it before any work
        out = tmp_path / "o"
        assert cli.main([command, "--config", config(tmp_path, command), "--seed", "-1",
                         "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert "--seed must be >= 0" in err["detail"]
        assert not out.exists()

    def test_out_naming_a_file_is_a_validation_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert cli.main(["rates", "--config", config(tmp_path, "rates"),
                         "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert "--out" in err["detail"]

    def test_config_naming_a_directory_is_a_validation_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["fit", "--config", str(tmp_path), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert str(tmp_path) in err["detail"]
        assert not out.exists()

    def test_config_that_is_not_utf8_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(json.dumps(payload("fit")).encode()[:-1] + b', "\xe9t\xe9": 1}')
        out = tmp_path / "o"
        assert cli.main(["fit", "--config", str(path), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert str(path) in err["detail"] and "UTF-8" in err["detail"]
        assert not out.exists()

    def test_config_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        # under the C locale, with neither UTF-8 mode nor locale coercion, open()
        # reads ASCII; the unknown field must still be read and named
        path = tmp_path / "cfg.json"
        path.write_bytes(json.dumps(payload("fit", **{"caf\u00e9": 1}),
                                    ensure_ascii=False).encode("utf-8"))
        src = pathlib.Path(deepgp_lab.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "deepgp_lab.cli", "fit", "--config", str(path),
             "--out", str(tmp_path / "o")], capture_output=True, timeout=120, env=env)
        assert proc.returncode == 1
        err = json.loads(proc.stderr.decode().strip())
        assert err["error"] == "validation" and "caf\u00e9" in err["detail"]

    def test_out_below_a_file_is_a_validation_error(self, tmp_path, capsys, monkeypatch):
        # refused before the suite runs
        monkeypatch.setattr(verify, "run_suite", None)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["verify", "--out", str(taken / "sub")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert str(taken) in err["detail"]

    def test_schema_version_true_is_a_validation_error(self, tmp_path, capsys):
        # true == 1 in Python; the field is an integer, as 1.0 is
        cfg = config(tmp_path, "rates", schema_version=True)
        assert cli.main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "validation",
                       "detail": "schema_version must be an integer, got True"}
        cfg = config(tmp_path, "rates", schema_version=1.0)
        assert cli.main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_outputs_honour_the_umask(self, tmp_path, umask):
        cfg, out = config(tmp_path, "fit"), tmp_path / "o"
        previous = os.umask(umask)
        try:
            assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert modes == dict.fromkeys(("trace.csv", "summary.csv", "manifest.json"),
                                      0o666 & ~umask)

    def test_program_bug_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, seed, out_dir):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_rates", broken)
        assert cli.main(["rates", "--config", config(tmp_path, "rates"),
                         "--out", str(tmp_path / "o")]) == 3
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(last) == {"error": "internal", "detail": "RuntimeError: boom"}

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # a design too large for the host is a resource problem, not a program bug;
        # the allocation is faked, as a host that overcommits memory would page instead
        def oversized(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(inference, "generate_data", oversized)
        assert cli.main(["fit", "--config", config(tmp_path, "fit"),
                         "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "resource", "detail": "MemoryError: Unable to allocate 7.28 TiB"}

    def test_corrupted_design_statistics_exit_2(self, tmp_path, capsys, monkeypatch):
        # a one-layer chain checks its design statistics against compose on the
        # design, on each structure's first state
        build = inference.design_statistics

        def corrupted(*args):
            stats = build(*args)
            return stats._replace(b=stats.b * (1.0 + 1e-9))

        monkeypatch.setattr(inference, "design_statistics", corrupted)
        assert cli.main(["fit", "--config", config(tmp_path, "fit"),
                         "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "numeric"
        assert re.match(r"structure \d+ \{.*\}: its design statistics give", err["detail"])
        assert "rounding bound" in err["detail"]

    def test_unconditioned_sample_takes_any_beta(self, tmp_path):
        # only the conditioning check needs beta <= 2; its norm column caps beta at 2
        cfg = config(tmp_path, "sample", family="stationary", beta=2.5)
        assert cli.main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_integral_float_is_an_integer(self, tmp_path):
        # 2e2 and 2.0 in a config mean the same as 200 and 2
        outs = []
        for name, kw in (("int", {}), ("float", {"n": 2e2, "draws": 2.0})):
            out = tmp_path / name
            assert cli.main(["prior", "--config", config(tmp_path, "prior", **kw),
                             "--out", str(out)]) == 0
            outs.append([(out / f).read_bytes() for f in ("weights.csv", "draws.json")])
        assert outs[0] == outs[1]

    def test_five_dimensional_wavelet_prior(self, tmp_path):
        space = {"input_dim": 5, "max_q": 0, "max_width": 1, "beta_bounds": [0.5, 1.0]}
        cfg = config(tmp_path, "prior", space=space, beta_grid=[1.0], draws=1)
        out = tmp_path / "out"
        assert cli.main(["prior", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
        # the rate term puts the prior's mass on one input, so the structure with
        # all five active is drawn from directly: its one node is on five variables
        spec = cli._prior_spec(payload("prior", space=space, beta_grid=[1.0]))
        eta = next(eta for eta, _ in prior.structure_prior_weights(spec)
                   if eta.graph.eff_dims[0] == 5)
        draw = prior.sample_dgp(eta, spec, seed=2)
        assert [(type(p), p.r) for layer in draw.layers for p, _ in layer.components] == [
            (funcspace.WaveletPath, 5)]

    def test_unknown_suite(self, tmp_path, capsys):
        with pytest.raises(ValidationError, match="nope"):
            verify.run_suite("nope")
        assert cli.main(["verify", "--suite", "nope", "--out", str(tmp_path)]) == 1
        assert "nope" in json.loads(capsys.readouterr().err.strip())["detail"]

    def test_verify_refuses_a_config(self, tmp_path, capsys):
        # refused before the suite runs
        out = tmp_path / "o"
        assert cli.main(["verify", "--suite", "gp", "--config", "/nonexistent",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert json.loads(captured.err.strip()) == {
            "error": "validation", "detail": "verify takes no --config"}

    @pytest.mark.parametrize("command", ["rates", "sample", "prior", "fit", "diagnose"])
    def test_config_command_refuses_a_suite(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert cli.main([command, "--config", config(tmp_path, command), "--suite", "gp",
                         "--out", str(out)]) == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "validation", "detail": f"{command} takes no --suite"}

    def test_threads_option_removed(self, capsys):
        assert cli.main(["rates", "--threads", "2"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation" and "--threads" in err["detail"]

    @pytest.mark.parametrize("argv", [["fit", "--seed", "abc"], ["fit", "--seed", "1.5"],
                                      ["frobnicate"], [], ["fit", "--bogus", "1"]])
    def test_usage_error_is_a_validation_error(self, capsys, argv):
        # argparse's own errors exit 1 with the one JSON line, not 2 with usage text
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip())["error"] == "validation"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0 and "usage: deepgp-lab" in capsys.readouterr().out


class TestSampleCommand:
    def test_exhausted_conditioned_draw_names_its_limit(self, tmp_path, capsys):
        # the prior's node law: K = holder_radius + 2 eps_n(1), which is 39.32 at n = 1e12
        cfg = config(tmp_path, "sample", family="stationary", n=10**12, count=1,
                     conditioned=True)
        assert cli.main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "numeric"
        assert ("no acceptance in 1000 attempts into sup <= 1 and Hoelder norm <= "
                "K = 39.32 on the 33^1 grid its values live on") in err["detail"]

    def test_conditioned_draw_is_the_prior_node(self, tmp_path):
        # the prior's node law (K = 904.2 at n = 500) accepts this draw at attempt 17
        cfg = config(tmp_path, "sample", family="stationary", n=500, count=1,
                     conditioned=True)
        out = tmp_path / "o"
        assert cli.main(["sample", "--config", cfg, "--seed", "1001",
                         "--out", str(out)]) == 0
        assert (out / "stats.csv").read_text().splitlines()[1].startswith("0,17,")

    def test_norms_are_read_on_the_path_nodes(self, tmp_path):
        # stats.csv reports the norms a conditioning check reads: on the 65 nodes
        # the values live on, not interpolated onto another grid
        cfg = config(tmp_path, "sample", family="stationary", n=500, grid=65)
        out = tmp_path / "o"
        assert cli.main(["sample", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "stats.csv").read_text().splitlines()[1:]]
        paths = [path_from_dict(d)
                 for d in json.loads((out / "paths.json").read_text())]
        assert len(rows) == len(paths) == 3
        for row, path in zip(rows, paths):
            assert path.values.shape == (65,)
            assert float(row[4]) == funcspace.holder_norm_empirical(path, 1.0)
            assert float(row[5]) == float(np.max(np.abs(path.values)))

    def test_outputs(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["sample", "--config", config(tmp_path, "sample"),
                         "--seed", "3", "--out", out]) == 0
        stats = (tmp_path / "out" / "stats.csv").read_text().splitlines()
        assert stats[0] == "index,attempts,acceptance_rate,besov_norm,holder_norm,sup_norm"
        assert len(stats) == 4
        paths = json.loads((tmp_path / "out" / "paths.json").read_text())
        assert len(paths) == 3

    def test_seed_changes_output(self, tmp_path):
        cfg = config(tmp_path, "sample")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        cli.main(["sample", "--config", cfg, "--seed", "1", "--out", a])
        cli.main(["sample", "--config", cfg, "--seed", "2", "--out", b])
        assert (tmp_path / "a" / "stats.csv").read_text() != \
            (tmp_path / "b" / "stats.csv").read_text()


class TestDeterminism:
    @pytest.mark.parametrize("command, outputs", [
        pytest.param("rates", {"rates.csv"}, id="rates"),
        pytest.param("sample", {"stats.csv", "paths.json"}, id="sample"),
        pytest.param("prior", {"weights.csv", "draws.json"}, id="prior"),
        pytest.param("fit", {"trace.csv", "summary.csv"}, id="fit"),
        pytest.param("diagnose", {"model_mass.csv", "contraction.csv"}, id="diagnose"),
    ])
    def test_rerun_byte_identical(self, tmp_path, command, outputs):
        cfg = config(tmp_path, command)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main([command, "--config", cfg, "--seed", "7",
                             "--out", str(out)]) == 0
        assert set(os.listdir(a)) == outputs | {"manifest.json"}
        for name in outputs:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_verify_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["verify", "--suite", "all", "--out", str(out)]) == 0
        assert set(os.listdir(a)) == {"verify.csv", "manifest.json"}
        assert (a / "verify.csv").read_bytes() == (b / "verify.csv").read_bytes()


def per_field_csv(header, rows):
    """A CSV file as the CLI wrote it one field at a time: a float with 17
    significant digits, anything else as str writes it."""
    def fmt(x):
        return format(x, ".17g") if isinstance(x, float) else str(x)
    return "\n".join([",".join(header)] + [",".join(map(fmt, row)) for row in rows]) + "\n"


# every kind of field a command writes
FIELDS = [1.5, 0.1, np.float64(0.1), math.nan, np.float64(math.nan), math.inf, -math.inf,
          -0.0, np.float64(-0.0), 5e-324, -5e-324, 1e308, 123456789.12345678, 0, 7,
          -3, 10**17, np.int64(-3), np.int64(2**62), True, False, np.True_, "", "a;b",
          "structure 0 {}", "%s %d %%"]


class TestCsvRows:
    # every column of a file holds one type, so its rows are written from one
    # %-format template, built from the first row, with the bytes the per-field
    # format wrote
    ROWS = {
        "every-kind": [tuple(FIELDS)],
        "trace": [(t, int(np.int64(t % 3)), np.float64(-t / 7), np.float64(t * 0.1),
                   np.float64(math.nan), np.float64(1.0 - 2.0**-52)) for t in range(5)],
        "rates": [(100, 0.31622776601683794, 0.5, -12.75, "0"),
                  (10000, 0.031622776601683791, math.inf, -math.inf, "0;1")],
        "verify": [("rates.alpha", 1, "alpha_0 = 1"), ("gp.acceptance", 0, "3 of 4; below 0.9")],
        "summary": [(400, 0.0171, math.nan, np.float64(0.25), 0)],
    }

    @pytest.mark.parametrize("name", ROWS)
    def test_rows_as_written_per_field(self, tmp_path, name):
        rows = self.ROWS[name]
        header = tuple(f"c{k}" for k in range(len(rows[0])))
        cli._write_csv(tmp_path, "t.csv", header, rows)
        assert (tmp_path / "t.csv").read_text() == per_field_csv(header, rows)

    @settings(max_examples=60, deadline=None)
    @given(columns=st.lists(st.sampled_from([
        st.floats(), st.floats(width=16).map(np.float64), st.integers(), st.booleans(),
        st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=","))]),
        min_size=1, max_size=6), data=st.data())
    def test_any_rows_as_written_per_field(self, tmp_path_factory, columns, data):
        rows = data.draw(st.lists(st.tuples(*columns), min_size=1, max_size=8), label="rows")
        out = tmp_path_factory.mktemp("csv")
        header = tuple(f"c{k}" for k in range(len(columns)))
        cli._write_csv(out, "t.csv", header, rows)
        assert (out / "t.csv").read_text() == per_field_csv(header, rows)

    @pytest.mark.parametrize("name", ROWS)
    def test_rows_streamed_from_a_generator(self, tmp_path, name):
        rows = self.ROWS[name]
        header = tuple(f"c{k}" for k in range(len(rows[0])))
        cli._write_csv(tmp_path, "list.csv", header, rows)
        cli._write_csv(tmp_path, "stream.csv", header, (row for row in rows))
        assert (tmp_path / "stream.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()

    def test_failed_row_leaves_the_target(self, tmp_path):
        # the bad row comes after more than a write buffer of good ones, so part of
        # the file has reached the temp file when it fails
        (tmp_path / "t.csv").write_text("old\n")
        rows = [(0.1 * t, t) for t in range(5000)] + [("not a float", 0)]
        with pytest.raises(TypeError):
            cli._write_csv(tmp_path, "t.csv", ("a", "b"), iter(rows))
        assert (tmp_path / "t.csv").read_text() == "old\n"
        assert os.listdir(tmp_path) == ["t.csv"]


class TestPriorAndFit:
    def test_prior_command(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["prior", "--config", config(tmp_path, "prior"),
                         "--out", out]) == 0
        weights = (tmp_path / "out" / "weights.csv").read_text().splitlines()
        assert len(weights) == 7  # header + 6 structures
        draws = json.loads((tmp_path / "out" / "draws.json").read_text())
        assert len(draws) == 2

    def test_fit_command(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["fit", "--config", config(tmp_path, "fit"), "--seed", "1",
                         "--out", out]) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert len(trace) == 61
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0] == ("n,pcn_acceptance,structure_acceptance,median_l2_error,"
                              "structure_exhausted")

    def test_diagnose_seed_changes_output(self, tmp_path):
        cfg = config(tmp_path, "diagnose")
        for seed in ("1", "2"):
            assert cli.main(["diagnose", "--config", cfg, "--seed", seed,
                             "--out", str(tmp_path / seed)]) == 0
        rows = (tmp_path / "1" / "contraction.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["100", "200"]
        assert rows != (tmp_path / "2" / "contraction.csv").read_text().splitlines()


def structures_listed(out):
    """The structure column of a prior run's weights.csv."""
    return [line.split(",")[1] for line in (out / "weights.csv").read_text().splitlines()]


def test_fit_enumerates_its_space_once(tmp_path, monkeypatch):
    # the benchmark's fit-stationary-n3200 config: its prior_draw truth and its
    # chain read one cached table of the structure prior
    space = {"input_dim": 1, "max_q": 1, "max_width": 2, "max_nodes": 16,
             "beta_bounds": [0.5, 1.0]}
    cfg = write_config(tmp_path, "fit.json", {
        "schema_version": 1, "family": "stationary", "n": 3200, "space": space,
        "beta_grid": [1.0], "truth": {"type": "prior_draw"},
        "posterior": {"iterations": 2000, "pcn_step": 0.98, "structure_move_prob": 0.1,
                      "burn_in": 0.5}})
    prior.structure_prior_weights.cache_clear()
    prior._structure_table.cache_clear()
    calls, enumerate_structures = [], prior.enumerate_structures

    def counting(*args):
        calls.append(args)
        return enumerate_structures(*args)

    monkeypatch.setattr(prior, "enumerate_structures", counting)
    assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    # the chain reads the table the truth's draw built, not the weights again
    info = prior.structure_prior_weights.cache_info()
    assert (info.misses, info.hits) == (1, 0)


class TestPenaltyHorizon:
    """No structure with |d|_1 past the horizon has prior mass, so a space's
    depth and widths past it list no further structures and are not checked."""

    def test_deep_space_lists_what_depth_four_lists(self, tmp_path):
        # at d_0 = 1 every structure with mass has q <= 4; walking every width
        # tuple of depth 14 would take far longer than the timeout
        listed = []
        for max_q in (4, 14):
            space = {"input_dim": 1, "max_q": max_q, "max_width": 4}
            out = tmp_path / f"q{max_q}"
            argv = ["prior", "--config", config(tmp_path, "prior", space=space, draws=0),
                    "--out", str(out)]
            run_fresh(f"import sys; from deepgp_lab import cli; sys.exit(cli.main({argv!r}))",
                      timeout=20)
            listed.append(structures_listed(out))
        assert len(listed[0]) > 100
        assert listed[1] == listed[0]

    @pytest.mark.parametrize("family, beta, space", [
        # the penalty bound over effective dimensions up to 1000 overflows
        ("wavelet", 1.0, {"input_dim": 1, "max_q": 2, "max_width": 1000}),
        # the limit K at alpha = 0.5**10 overflows; no structure with mass is that deep
        ("stationary", 0.5, {"input_dim": 1, "max_q": 10, "max_width": 1}),
    ], ids=["wide", "deep"])
    def test_space_past_the_horizon_runs(self, tmp_path, family, beta, space):
        reachable = dict(space, max_q=min(space["max_q"], 4),
                         max_width=min(space["max_width"], 4))
        listed = []
        for name, s in (("given", space), ("reachable", reachable)):
            cfg = config(tmp_path, "prior", family=family, beta_grid=[beta], draws=0,
                         space=dict(s, beta_bounds=[0.5, 1.0]))
            assert cli.main(["prior", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            listed.append(structures_listed(tmp_path / name))
        assert listed[0] == listed[1]


class TestVerifyCommand:
    def test_rates_suite_passes(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["verify", "--suite", "rates", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "[PASS]" in stdout and "[FAIL]" not in stdout
        assert os.path.exists(os.path.join(out, "verify.csv"))


README_JSON = re.findall(r"```json\n(.*?)```",
                         (pathlib.Path(__file__).parents[1] / "README.md").read_text(), re.S)


@pytest.mark.parametrize("block", README_JSON,
                         ids=[f"block{i}" for i in range(len(README_JSON))])
def test_readme_example_runs(tmp_path, block):
    # an example documents the one command whose config fields it has
    example = json.loads(block)
    fields = set(example) - {"schema_version"}
    commands = [c for c, (required, optional) in cli._FIELDS.items()
                if required <= fields <= required | optional]
    assert len(commands) == 1, f"{sorted(fields)} match the commands {commands}"
    cfg = write_config(tmp_path, "example.json", example)
    assert cli.main([commands[0], "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_library_never_prints():
    # only the CLI writes to the terminal
    src = pathlib.Path(deepgp_lab.__file__).parent
    printing = [f"{path.name}:{node.lineno}"
                for path in sorted(src.glob("*.py")) if path.name != "cli.py"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"]
    assert printing == []


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(deepgp_lab.__path__)))
def test_all_names_exist(module):
    # a stale __all__ entry breaks `from deepgp_lab.<module> import *`
    mod = importlib.import_module(f"deepgp_lab.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_all_names_are_read():
    # an __all__ name that no module of the package reads, past its own def or
    # class line, is reached by no command: it is test code (tests/reference.py)
    src = pathlib.Path(deepgp_lab.__file__).parent
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for path in src.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}
    modules = sorted(m.name for m in pkgutil.iter_modules(deepgp_lab.__path__))
    unread = [f"{module}.{name}" for module in modules
              for name in getattr(importlib.import_module(f"deepgp_lab.{module}"), "__all__", ())
              if name not in read]
    assert unread == []


def test_profile_fields_are_each_read_by_some_family():
    read = set().union(*rates.PROFILE_FIELDS.values())
    assert sorted(rates.PROFILE_FIELDS) == sorted(rates.FAMILIES)
    assert read == cli._field_names(rates.RateProfile, exclude=("family",))


def test_cli_imports_verify_only_for_verify():
    # the suites' module is compiled for the verify command alone
    run_fresh("import deepgp_lab.cli, sys; assert 'deepgp_lab.verify' not in sys.modules")


def test_cli_does_not_import_scipy_interpolate():
    # scipy.interpolate adds about a quarter second to every CLI launch and
    # scipy.special as much again; the package needs no scipy module at all
    run_fresh("import deepgp_lab.cli, sys; "
              "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")


def test_cli_does_not_import_dataclasses():
    # the package's records are tuples: building 12 dataclasses took about 7 ms
    # of every CLI launch on a 2-vCPU host
    run_fresh("import deepgp_lab.cli, sys; assert 'dataclasses' not in sys.modules")


def test_fit_does_not_import_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma, 11-15 ms of a CLI launch on a
    # 2-vCPU host; fit and diagnose take their medians with inference.median
    argv = ["fit", "--config", config(tmp_path, "fit"), "--out", str(tmp_path / "out")]
    run_fresh("import sys; from deepgp_lab import cli; "
              f"assert cli.main({argv!r}) == 0; assert 'numpy.ma' not in sys.modules")


def test_cli_freezes_its_imports_once(tmp_path):
    # importing the CLI freezes what its imports made, which lives until exit,
    # so neither a collection nor the interpreter's exit walks it; a command run
    # in-process (tests, verify, a library caller) freezes nothing of its own
    cfg = config(tmp_path, "rates")
    argvs = [["rates", "--config", cfg, "--out", str(tmp_path / out)] for out in "ab"]
    run_fresh("import gc; from deepgp_lab import cli; "
              "assert gc.isenabled(); frozen = gc.get_freeze_count(); assert frozen > 0; "
              f"assert [cli.main(argv) for argv in {argvs!r}] == [0, 0]; "
              "assert gc.get_freeze_count() <= frozen, (gc.get_freeze_count(), frozen)")
