"""Command-line entry point: rates / sample / prior / fit / diagnose / verify.

All outputs are written atomically (temp file + rename) into the --out
directory; a manifest.json records the config hash, seed, and version.
A CSV's rows are streamed into its temp file as they are formatted, so no
file is built as one string first.  Reals are printed with 17 significant
digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

# eager: perfbench/tracer.py rebinds names only in modules that importing cli loads
from . import __version__, funcspace, gp, inference, prior, rates, structure
from .errors import DeepGpError, ValidationError

# a command's process is short-lived and the objects its imports made live until
# exit, so take them out of every later collection, the one at exit included
gc.freeze()

_SCHEMA_VERSION = 1

# most nodes a `sample` path holds its values on, and its largest r.  Building
# a wavelet path sums 2^r corner terms at each knot, so r is capped too: at
# r = 9, J = 1 a path has only 5^9 knots, but 2^9 terms at each.
_SAMPLE_POINTS, _SAMPLE_MAX_R = 2**21, 4

# command -> (required, optional) top-level config fields
_FIELDS = {
    "rates": ({"structure", "family", "n_list"}, {"profile"}),
    "sample": ({"family", "beta", "r", "n"}, {"count", "conditioned", "grid"}),
    "prior": ({"space", "family", "n"}, {"beta_grid", "draws", "profile"}),
    "fit": ({"space", "family", "n", "truth"}, {"beta_grid", "posterior", "profile"}),
    "diagnose": ({"space", "family", "n", "truth", "n_list"},
                 {"beta_grid", "posterior", "profile", "C"}),
}


def _field_names(cls, exclude=()):
    return set(cls._fields) - set(exclude)


def _atomic_write(out_dir, name, chunks):
    """Write the strings of the iterable chunks, in turn, to out_dir/name: into a
    temp file that replaces the target only once every chunk is written.  If a
    chunk fails, the target is left as it was and the temp file is removed."""
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes the file 0600
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(out_dir, name, header, rows):
    """Each column holds one type, so the first row gives every row's %-format
    template: a float (numpy's float64 too) is written with 17 significant
    digits, anything else as str writes it.  rows is any iterable of tuples,
    read once, each row formatted as it is written."""
    rows = iter(rows)
    first = next(rows)
    template = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    lines = (template % row for row in itertools.chain([first], rows))
    _atomic_write(out_dir, name, itertools.chain([",".join(header) + "\n"], lines))


def _fields(d, where, required=(), optional=()):
    """Return the config object d once it has every required field and no unknown one."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be a JSON object")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ValidationError(f"missing {where} fields: {missing}")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"unknown {where} fields: {unknown}")
    return d


def _int(value, name):
    """An integer config value; integral floats such as 1e5 count as integers."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _float64_count(count, name):
    """A count of float64 entries that one numpy array can hold: numpy refuses an
    array of more than its largest index in bytes, before it allocates anything."""
    if count * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise ValidationError(f"{name}: {count} float64 values exceed the largest array "
                              "numpy can allocate")
    return count


def _design_size(value, input_dim, name):
    """A sample size n whose design, n points of input_dim float64 coordinates, an
    array can hold."""
    n = _int(value, name)
    _float64_count(n * input_dim, f"{name} = {n} points of space.input_dim = {input_dim}")
    return n


def _seed(value, name):
    """A seed: a nonnegative integer, as numpy's SeedSequence takes."""
    seed = _int(value, name)
    if seed < 0:
        raise ValidationError(f"{name} must be >= 0, got {seed}")
    return seed


def _real(value, name):
    """A real config value: a finite JSON number, not a boolean (json reads NaN, Infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def _bool(value, name):
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be true or false, got {value!r}")
    return value


def _list(value, name, item):
    """A nonempty list config value whose entries each pass the check `item`."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    if not value:
        raise ValidationError(f"{name} must not be empty")
    return tuple(item(v, name) for v in value)


def _n_list(cfg, item=_int):
    """cfg's n_list, whose entries pass the check `item` and are >= 3, the least n rates take."""
    def entry(value, name):
        n = item(value, name)
        if n < 3:
            raise ValidationError(f"{name} entry {n} must be >= 3")
        return n
    return _list(cfg["n_list"], "n_list", entry)


def _load_config(path, command):
    """The config at path, read as UTF-8 JSON whatever the locale."""
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config {path!r} is not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON config: {exc}") from exc
    required, optional = _FIELDS[command]
    _fields(cfg, f"{command} config", required | {"schema_version"}, optional)
    if _int(cfg["schema_version"], "schema_version") != _SCHEMA_VERSION:
        raise ValidationError(f"schema_version must be {_SCHEMA_VERSION}")
    return cfg


def _profile(cfg):
    kwargs = _fields(cfg.get("profile", {}), "profile",
                     optional=_field_names(rates.RateProfile, exclude=("family",)))
    profile = rates.RateProfile(family=cfg["family"],
                                **{k: _real(v, f"profile.{k}") for k, v in kwargs.items()})
    read = rates.PROFILE_FIELDS[profile.family]
    unread = sorted(set(kwargs) - read)
    if unread:
        raise ValidationError(
            f"profile fields {unread} do nothing for the {profile.family} family, which "
            f"reads {sorted(read)}")
    return profile


def _space(cfg):
    s = _fields(cfg["space"], "space", ("input_dim", "max_q", "max_width"),
                ("max_nodes", "beta_bounds"))
    return structure.StructureSpace(
        **{k: _int(s[k], f"space.{k}") for k in ("input_dim", "max_q", "max_width")},
        max_nodes=_int(s.get("max_nodes", 16), "space.max_nodes"),
        beta_bounds=_list(s.get("beta_bounds", (0.5, 1.0)), "space.beta_bounds", _real),
    )


def _prior_spec(cfg):
    return prior.StructurePriorSpec(
        space=_space(cfg), profile=_profile(cfg), n=_int(cfg["n"], "n"),
        beta_grid=_list(cfg.get("beta_grid", (1.0,)), "beta_grid", _real),
    )


def _manifest(out_dir, command, config_path, seed):
    digest = ""
    if config_path:
        with open(config_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    _atomic_write(out_dir, "manifest.json", [json.dumps({
        "command": command,
        "config_sha256": digest,
        "seed": seed,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }, indent=2, sort_keys=True), "\n"])


# ---------------------------------------------------------------------------
# subcommands

def _structure(cfg):
    """The rates command's structure, with every field type-checked."""
    def ints(v, name):
        return _list(v, name, _int)

    def reals(v, name):
        return _list(v, name, _real)

    def sets(v, name):  # per layer, per output: the active input indices
        return _list(v, name, lambda layer, name: _list(layer, name, ints))

    checks = {"q": _int, "dims": ints, "eff_dims": ints, "active_sets": sets,
              "betas": reals, "beta_bounds": reals}
    s = _fields(cfg["structure"], "structure", checks)
    return structure.structure_from_dict(
        {k: check(s[k], f"structure.{k}") for k, check in checks.items()})


def _cmd_rates(cfg, seed, out_dir):
    eta = _structure(cfg)
    profile = _profile(cfg)
    for beta in eta.betas:
        try:
            rates.check_beta(profile.family, beta)
        except ValidationError as exc:
            raise ValidationError(f"structure.betas {list(eta.betas)}: {exc}") from exc
    rows = []
    for n in _n_list(cfg):
        rates.check_finite(profile, lambda p: n * rates.eps_structure(eta, p, n) ** 2,
                           f"n = {n}: the penalty Psi_n")
        rn = rates.minimax_rate(eta, n)
        eps = rates.eps_structure(eta, profile, n)
        lw = rates.psi_n(eta, profile, n).log_value
        rows.append((n, rn.value, eps, lw, ";".join(str(i) for i in rn.argmax_layers)))
    _write_csv(out_dir, "rates.csv",
               ("n", "r_n", "eps_n", "log_prior_weight", "argmax_layers"), rows)


def _cmd_sample(cfg, seed, out_dir):
    spec = gp.GpSpec(family=cfg["family"], beta=_real(cfg["beta"], "beta"),
                     r=_int(cfg["r"], "r"), n=_int(cfg["n"], "n"),
                     grid=_int(cfg.get("grid", gp.DEFAULT_GRID), "grid"))
    if "grid" in cfg and spec.family == rates.WAVELET:
        raise ValidationError(f"grid={spec.grid}: a wavelet path's values live on its "
                              "knot grid, so grid is for the fbm and stationary families")
    count = _int(cfg.get("count", 1), "count")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    # a conditioned draw is a node of the prior: the same limit K and budget
    K = (prior.conditioning_limit(spec, rates.RateProfile(family=spec.family))
         if _bool(cfg.get("conditioned", False), "conditioned") else None)
    m = gp.value_grid(spec)
    if spec.r > _SAMPLE_MAX_R or m ** spec.r > _SAMPLE_POINTS:
        raise ValidationError(
            f"sample holds a path's values on {m}^r grid points, capped at "
            f"{_SAMPLE_POINTS} and at r <= {_SAMPLE_MAX_R}; got r={spec.r}")
    paths, rows = [], []
    for k in range(count):
        rng = gp.rng_for(seed, (k, 1))
        if K is not None:
            _, path, attempts = gp.sample_conditioned(spec, K, rng)
        else:
            path, attempts = gp.sample_path(spec, rng), 1
        # the norms a conditioning check reads: on the nodes the values live on
        sup = float(np.max(np.abs(path.values)))
        bnorm = hnorm = float("nan")
        if isinstance(path, funcspace.WaveletPath):
            bnorm = funcspace.besov_norm(path, spec.beta)
        else:
            hnorm = funcspace.holder_norm_empirical(
                path, min(spec.beta, funcspace.HOLDER_MAX_BETA))
        paths.append(funcspace.path_to_dict(path))
        rows.append((k, attempts, 1.0 / attempts, bnorm, hnorm, sup))
    _atomic_write(out_dir, "paths.json", [json.dumps(paths, sort_keys=True), "\n"])
    _write_csv(out_dir, "stats.csv",
               ("index", "attempts", "acceptance_rate", "besov_norm",
                "holder_norm", "sup_norm"), rows)


def _cmd_prior(cfg, seed, out_dir):
    spec = _prior_spec(cfg)
    n_draws = _int(cfg.get("draws", 0), "draws")
    if n_draws < 0:
        raise ValidationError(f"draws must be >= 0, got {n_draws}")
    rows = [(idx, structure.structure_to_json(eta).replace(",", ";"), lw.log_value,
             float(np.exp(lw.log_value)))
            for idx, (eta, lw) in enumerate(prior.structure_prior_weights(spec))]
    _write_csv(out_dir, "weights.csv", ("index", "structure", "log_weight", "weight"),
               rows)
    draws = []
    for k in range(n_draws):
        d = prior.sample_prior(spec, seed + k)
        draws.append({
            "structure": structure.structure_to_dict(d.structure),
            "layers": [[funcspace.path_to_dict(p) for p, _ in layer.components]
                       for layer in d.layers],
        })
    if draws:
        _atomic_write(out_dir, "draws.json", [json.dumps(draws, sort_keys=True), "\n"])


def _truth(cfg, spec, seed):
    t = _fields(cfg["truth"], "truth", ("type",), ("seed",))
    if t["type"] == "zero":
        if "seed" in t:
            raise ValidationError('truth.seed does nothing with truth.type "zero"')
        return (lambda X: np.zeros(len(X))), prior.structure_prior_weights(spec)[0][0]
    if t["type"] == "prior_draw":
        d = prior.sample_prior(spec, _seed(t.get("seed", seed + 999), "truth.seed"))
        return d, d.structure
    raise ValidationError(f"unknown truth type {t['type']!r}")


def _posterior_config(cfg, seed):
    p = dict(_fields(cfg.get("posterior", {}), "posterior",
                     optional=_field_names(inference.PosteriorConfig)))
    p.setdefault("seed", seed)
    for name, check in (("iterations", _int), ("seed", _seed), ("pcn_step", _real),
                        ("structure_move_prob", _real), ("burn_in", _real),
                        ("prior_only", _bool)):
        if name in p:
            p[name] = check(p[name], f"posterior.{name}")
    if "iterations" in p:  # the trace holds one float64 per iteration in each column
        p["iterations"] = _float64_count(p["iterations"], "posterior.iterations")
    return inference.PosteriorConfig(**p)


def _cmd_fit(cfg, seed, out_dir):
    _design_size(cfg["n"], _space(cfg).input_dim, "n")
    spec, config = _prior_spec(cfg), _posterior_config(cfg, seed)
    f_star, eta_star = _truth(cfg, spec, seed)
    data = inference.generate_data(f_star, n=spec.n, seed=seed,
                                   input_dim=eta_star.graph.dims[0])
    trace = inference.run_mcmc(data, spec, config)
    columns = (trace.structure_idx, trace.log_lik, trace.l2_error, trace.besov, trace.sup)
    _write_csv(out_dir, "trace.csv",
               ("iteration", "structure_index", "log_lik", "l2_error", "besov_norm",
                "sup_norm"),
               zip(itertools.count(), *(c.tolist() for c in columns)))
    _write_csv(out_dir, "summary.csv",
               ("n", "pcn_acceptance", "structure_acceptance", "median_l2_error",
                "structure_exhausted"),
               [(data.n, trace.acceptance("pcn"), trace.acceptance("structure"),
                 inference.median(trace.post_burn(trace.l2_error)),
                 trace.moves["structure", "exhausted"])])


def _cmd_diagnose(cfg, seed, out_dir):
    spec, C = _prior_spec(cfg), _real(cfg.get("C", 2.0), "C")
    n_list = _n_list(cfg, lambda n, name: _design_size(n, spec.space.input_dim, name))
    if not C > 0:
        raise ValidationError(f"C must be > 0, got {C}")
    config = _posterior_config(cfg, seed)
    f_star, eta_star = _truth(cfg, spec, seed)
    mass_rows, contr_rows = [], []
    for row, spec_n, (trace,) in inference.contraction_runs(
            f_star, eta_star, spec, config, n_list):
        contr_rows.append(row)
        mass_rows.append((row[0], C, inference.model_mass(trace, spec_n, eta_star, C=C)))
    _write_csv(out_dir, "model_mass.csv", ("n", "C", "mass"), mass_rows)
    _write_csv(out_dir, "contraction.csv",
               ("n", "median_l2_error", "eps_n", "minimax_rate"), contr_rows)


def _cmd_verify(suite, out_dir):
    from . import verify  # only this command runs the suites

    rows = []
    for name, ok, detail in verify.run_suite(suite):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        rows.append((name, int(ok), detail.replace(",", ";")))
    _write_csv(out_dir, "verify.csv", ("check", "ok", "detail"), rows)
    return all(ok for _, ok, _ in rows)


def _check_out(out):
    """Refuse an --out that cannot be made a directory: its nearest existing
    path (itself or an ancestor) is not one."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValidationError(f"--out {out!r}: {path!r} exists and is not a directory")


def _usage_error(message):
    """argparse's error hook: a usage error is a validation error (exit 1, one JSON line)."""
    raise ValidationError(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="deepgp-lab")
    parser.error = _usage_error
    parser.add_argument("command",
                        choices=["rates", "sample", "prior", "fit", "diagnose",
                                 "verify"])
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".")
    parser.add_argument("--suite", default=None)
    try:
        args = parser.parse_args(argv)
        _seed(args.seed, "--seed")
        _check_out(args.out)
        unused = "config" if args.command == "verify" else "suite"
        if getattr(args, unused) is not None:
            raise ValidationError(f"{args.command} takes no --{unused}")
        if args.command == "verify":
            ok = _cmd_verify("all" if args.suite is None else args.suite, args.out)
            _manifest(args.out, args.command, args.config, args.seed)
            return 0 if ok else 2
        if args.config is None:
            raise ValidationError(f"{args.command} requires --config")
        cfg = _load_config(args.config, args.command)
        handler = {"rates": _cmd_rates, "sample": _cmd_sample, "prior": _cmd_prior,
                   "fit": _cmd_fit, "diagnose": _cmd_diagnose}[args.command]
        handler(cfg, args.seed, args.out)
        _manifest(args.out, args.command, args.config, args.seed)
        return 0
    except (ValidationError, OSError) as exc:  # OSError: a path that cannot be read or written
        code, error, detail = 1, "validation", str(exc)
    except DeepGpError as exc:  # NumericError and its kin
        code, error, detail = 2, "numeric", str(exc)
    except MemoryError as exc:  # a design or path too large for this host
        code, error, detail = 2, "resource", f"MemoryError: {exc}"
    except Exception as exc:  # a program bug, not a user or numeric error
        code, error, detail = 3, "internal", f"{type(exc).__name__}: {exc}"
    print(json.dumps({"error": error, "detail": detail}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
