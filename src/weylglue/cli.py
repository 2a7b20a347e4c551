"""Command-line front end: verification suites, interaction and balance
reports, and parameter sweeps.

Exit-status contract: 0 means all checks passed (or the energy bracket is
negative), 1 means a check failed (or the bracket is nonnegative), 2 means
an input error.  All JSON output is emitted with sorted keys and all CSV
rows in deterministic grid order, so identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import biharmonic, curvature, duality, energy, gluing, tensor_core
from .fields import PolynomialField

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _threads() -> int:
    raw = os.environ.get("WEYLGLUE_THREADS", "1")
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"WEYLGLUE_THREADS must be an integer, got {raw!r}") from exc
    if val < 1:
        raise ValueError("WEYLGLUE_THREADS must be positive")
    return val


def _emit(payload, path: str | None) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, default=float,
                          allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("floating-point overflow: the report holds a "
                         "non-finite number") from None
    _write(text, path)


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spectrum(path: str):
    with open(path) as fh:
        payload = json.load(fh)
    sd, asd = tensor_core.spectrum_from_json(payload)
    return tensor_core.algweyl_from_spectrum(sd, asd)


# ---------------------------------------------------------------------------
# verify suites

class _Draws(random.Random):
    """The verify suites' seeded draws: the standard library's generator,
    with the two numpy-style draws the suites make (``choice`` is
    inherited), as arrays of shape ``size``."""

    def standard_normal(self, size):
        return np.reshape([self.gauss(0.0, 1.0) for _ in range(np.prod(size))], size)

    def uniform(self, lo, hi, size=None):
        if size is None:
            return super().uniform(lo, hi)
        return lo + (hi - lo) * np.reshape([self.random() for _ in range(np.prod(size))], size)


def _check(name, tag, residual, tol):
    return {"name": name, "tag": tag, "residual": float(residual),
            "tol": float(tol), "pass": bool(residual <= tol)}


def _suite_sphere(rng):
    checks = []
    exact = np.array([energy.sphere_moment(*idx) for idx in np.ndindex((4,) * 4)])
    for level in (12, 16):
        pts, wts = energy.sphere_rule(level)
        err = abs(float(wts.sum()) - energy.VOL_S3)
        checks.append(_check(f"sphere-volume-L{level}", "quadrature-volume", err, 1e-12))
        # the degree-4 moments as matrix products over the pairs x_a x_b,
        # accumulated over chunks of points, so no (N, 16) array of the
        # whole rule is formed
        moments = np.zeros((16, 16))
        for start in range(0, wts.size, energy.SPHERE_CHUNK):
            x = pts[start:start + energy.SPHERE_CHUNK]
            xx = (x[:, :, None] * x[:, None, :]).reshape(-1, 16)
            moments += (wts[start:start + energy.SPHERE_CHUNK, None] * xx).T @ xx
        moment_err = float(np.abs(moments.ravel() - exact).max())
        checks.append(_check(f"sphere-moments-L{level}", "quadrature-moments",
                             moment_err, 1e-12))
    return checks


def _random_weyl(rng):
    sd = rng.standard_normal(3)
    asd = rng.standard_normal(3)
    return tensor_core.algweyl_from_spectrum(sd - sd.mean(), asd - asd.mean())


def _suite_tensor(rng):
    checks = []
    err_kn = err_op = err_blk = 0.0
    for _ in range(5):
        t = _random_weyl(rng)
        err_kn = max(err_kn, max(tensor_core.validate(t, "weyl").values()))
        op = tensor_core.op_from_tensor(t)
        err_op = max(err_op, np.abs(tensor_core.tensor_from_op(op) - t).max())
        err_blk = max(err_blk, np.abs(duality.SD_UNIT @ op @ duality.ASD_UNIT.T).max())
    checks.append(_check("weyl-class-residual", "curvature-symmetries", err_kn, 1e-10))
    checks.append(_check("operator-round-trip", "two-form-operator", err_op, 1e-12))
    checks.append(_check("hodge-block-diagonal", "duality-split", err_blk, 1e-12))
    return checks


def _suite_curvature(rng):
    checks = []
    err = 0.0
    for _ in range(3):
        field = PolynomialField.random(rng, scale=0.05)
        chart = curvature.FieldChart(field)
        x = 0.3 * rng.standard_normal(4)
        h = PolynomialField.random(rng, scale=1.0)
        lin = curvature.linearize_curvature(chart, h, x)
        for key, fd in curvature.fd_linearize(chart, h, x).items():
            scale = max(np.abs(fd).max(), 1.0)
            err = max(err, np.abs(np.asarray(lin[key]) - fd).max() / scale)
    checks.append(_check("linearizations-vs-fd", "curvature-first-variation", err, 1e-6))
    return checks


def _suite_biharmonic(rng):
    checks = []
    err_solve = err_bc = err_bilap = 0.0
    for _ in range(5):
        wm = _random_weyl(rng)
        wz = _random_weyl(rng)
        gamma = float(rng.choice([0.3, 0.1, 0.02]))
        lam = float(rng.uniform(0.5, 3.0))
        for case, idx in (("diag-phi", (0, 1, 2)), ("offdiag-phi", (0, 1, 2, 3))):
            v = biharmonic.boundary_vector(case, idx, wm, wz, gamma, lam)
            c1 = biharmonic.solve_profile(gamma, v)
            c2 = np.linalg.solve(biharmonic.a_gamma(gamma), v)
            err_solve = max(err_solve, np.abs(c1 - c2).max() / max(np.abs(c2).max(), 1e-30))
            scale = max(np.abs(v).max(), 1e-30)
            err_bc = max(err_bc,
                         abs(gamma ** 4 * biharmonic.radial_profile(c1, gamma) - v[0]) / scale,
                         abs(biharmonic.radial_profile(c1, 1.0) - v[2]) / scale)
        wdot = biharmonic.assemble_interpolant(wm, wz, gamma, lam)
        x = rng.uniform(gamma + 0.05 * (1 - gamma), 0.95, (20, 1)) * _unit_dirs(rng, 20)
        # contract the fourth-derivative slab d_a d_a d_b d_b rather than
        # calling the closed-form bilaplacian, and normalize against its
        # magnitude: that is the cancellation scale of the double trace
        terms = wdot.bilaplacian_terms(x)
        scale = max(np.abs(terms).max(), 1e-30)
        err_bilap = max(err_bilap,
                        np.abs(np.einsum("nabij->nij", terms)).max() / scale)
    checks.append(_check("closed-vs-direct-solve", "profile-system", err_solve, 1e-11))
    checks.append(_check("boundary-conditions", "profile-system", err_bc, 1e-10))
    checks.append(_check("interpolant-bilaplacian", "biharmonic-equation", err_bilap, 1e-9))
    return checks


def _unit_dirs(rng, n):
    v = rng.standard_normal((n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _suite_tt(rng):
    checks = []
    err = 0.0
    for _ in range(5):
        wm = _random_weyl(rng)
        wz = _random_weyl(rng)
        wdot = biharmonic.assemble_interpolant(wm, wz, 0.1, 1.5)
        x = rng.uniform(0.15, 0.95, (20, 1)) * _unit_dirs(rng, 20)
        scale = max(np.abs(wdot.derivative(x, 0)).max(), 1e-30)
        err = max(err,
                  np.abs(wdot.trace(x)).max() / scale,
                  np.abs(wdot.divergence(x)).max() / scale)
    checks.append(_check("interpolant-tt", "transverse-traceless", err, 1e-10))
    return checks


def _suite_variation(rng):
    checks = []
    wz = _random_weyl(rng)
    wm = _random_weyl(rng)
    # the interpolant on its annulus: the biharm form has a bulk term there,
    # while on the constant-profile model_H the two forms agree bit for bit
    wdot = biharmonic.assemble_interpolant(wm, wz, 0.3, 1.5)
    bilap, biharm = (energy.second_variation(wdot, ("annulus", 0.3, 1.0), form)
                     for form in ("bilap", "biharm"))
    checks.append(_check("boundary-forms-agree", "quadratic-expansion",
                         abs(bilap - biharm) / max(abs(bilap), 1e-30), 1e-10))
    h = gluing.model_H(wz)
    phi = energy.second_variation(h, ("ball", 1.0), form="bilap")
    ts = np.geomspace(1e-3, 1e-2, 5)
    ens = energy.dilation_energy(h, ts)
    res = np.abs(ens - ts ** 2 * phi)
    slope = float(np.polyfit(np.log(ts), np.log(res), 1)[0])
    checks.append(dict(_check("cubic-remainder-slope", "quadratic-expansion",
                              max(0.0, 2.7 - slope), 0.0), slope=slope))
    # the first-order coefficient of the energy in t must vanish at flat
    basis = np.stack([ts, ts ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(basis, ens, rcond=None)
    checks.append(_check("first-variation-vanishes", "flat-critical-point",
                         abs(coef[0]) / max(abs(coef[1]) * 1e-3, 1e-30), 1.0))
    return checks


SUITES = {
    "sphere": _suite_sphere,
    "tensor": _suite_tensor,
    "curvature": _suite_curvature,
    "biharmonic": _suite_biharmonic,
    "tt": _suite_tt,
    "variation": _suite_variation,
}


def cmd_verify(args) -> int:
    # argparse's choices admit only the suites and "all"
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.tol is not None and not 0.0 <= args.tol < np.inf:
        raise ValueError(f"--tol must be finite and at least 0, got {args.tol}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    checks = []
    for name in names:
        checks.extend(SUITES[name](_Draws(args.seed)))
    if args.tol is not None:
        for c in checks:
            c["tol"] = args.tol
            c["pass"] = bool(c["residual"] <= args.tol)
    ok = all(c["pass"] for c in checks)
    _emit({"suite": args.suite, "seed": args.seed, "checks": checks,
           "pass": ok}, args.output)
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# interact

def cmd_interact(args) -> int:
    wm = _load_spectrum(args.wm)
    wz = _load_spectrum(args.wz)
    flags = duality.positivity_bound(wm, wz)
    lm_sd, lm_asd = duality.spectra(wm)
    lz_sd, lz_asd = duality.spectra(wz)
    report = {
        "tag": "aligned-interaction",
        "spectra": {"m_sd": list(lm_sd), "m_asd": list(lm_asd),
                    "z_sd": list(lz_sd), "z_asd": list(lz_asd)},
        "aligned_value": flags["aligned_value"],
        "bound": flags["bound"],
        "conformally_flat_factor": flags["conformally_flat_factor"],
        "excluded_case": flags["excluded_case"],
        "positive": flags["positive"],
    }
    if args.align:
        realized = duality.align_and_interact(wm, wz)
        report["realized_value"] = realized["value"]
    _emit(report, args.output)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# balance

def cmd_balance(args) -> int:
    manual = {"--lambda": args.lam, "--gamma": args.gamma, "--a": args.a}
    given = [k for k, v in manual.items() if v is not None]
    if args.auto is not None and given:
        raise ValueError(f"--auto conflicts with {', '.join(given)}: it selects lambda, "
                         "gamma and a itself (drop them from the command line or --config)")
    wm = _load_spectrum(args.wm)
    wz = _load_spectrum(args.wz)
    flags = duality.positivity_bound(wm, wz)
    if flags["excluded_case"]:
        raise ValueError("excluded case: one factor purely self-dual, the other "
                         "purely anti-self-dual, each in its input's orientation; "
                         "balance glues M-bar # Z (the inversion reverses M's "
                         "orientation), so both summands are self-dual or both "
                         "anti-self-dual, and no sign conclusion is available")
    regime_notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", gluing.RegimeWarning)
        if args.auto is not None:
            try:
                params = energy.choose_parameters(wm, wz, margin=args.auto)
            except energy.MarginNotReached as exc:
                # valid input whose bracket stays above -margin: a failed
                # check, not an input error
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_FAIL
        else:
            missing = [k for k in manual if k not in given]
            if missing:
                raise ValueError(f"missing {', '.join(missing)} (or use --auto)")
            params = gluing.GluingParams(a=args.a, lam=args.lam, gamma=args.gamma)
        bal = energy.energy_balance(wm, wz, params)
        regime_notes = [str(w.message) for w in caught
                        if issubclass(w.category, gluing.RegimeWarning)]
    # the model energy_balance evaluates: no error tensors, so the
    # cutoff-region term is zero
    report = {"tag": "energy-balance", **bal.to_json(),
              "error_model": "truncated", "cutoff_region_term": 0.0,
              "regime_warnings": sorted(set(regime_notes)),
              "negative": bool(bal.leading_bracket < 0.0)}
    if args.auto is not None:
        report["selected"] = {"lambda": params.lam, "gamma": params.gamma, "a": params.a}
    _emit(report, args.output)
    return EXIT_PASS if bal.leading_bracket < 0.0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# sweep

CSV_COLUMNS = ["lambda", "gamma", "a", "bracket", "interaction",
               "constant_C", "fit_residual", "sign"]


def _write_csv(rows, path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _write(buf.getvalue(), path)


def cmd_sweep(args) -> int:
    wm = _load_spectrum(args.wm)
    wz = _load_spectrum(args.wz)
    # the default only for a grid not given: an empty one is refused below
    lam_grid = list(energy.LAMBDA_GRID) if args.lambda_grid is None else args.lambda_grid
    gamma_grid = list(energy.GAMMA_GRID) if args.gamma_grid is None else args.gamma_grid
    if not lam_grid or not gamma_grid:
        raise ValueError("empty sweep grid")
    flags = duality.positivity_bound(wm, wz)
    inconclusive = flags["excluded_case"] or flags["conformally_flat_factor"]
    # the CSV does not record the regime, so its warnings are silenced here, on
    # this thread (catch_warnings is not thread-safe); energy_balance emits none
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gluing.RegimeWarning)
        grid = [gluing.GluingParams(a=gamma ** 2 / 20.0, lam=lam, gamma=gamma)
                for lam in lam_grid for gamma in gamma_grid]

    def one(params):
        bal = energy.energy_balance(wm, wz, params)
        if inconclusive:
            sign = "inconclusive"
        else:
            sign = "negative" if bal.leading_bracket < 0.0 else "nonnegative"
        return {"lambda": params.lam, "gamma": params.gamma, "a": params.a,
                "bracket": bal.leading_bracket, "interaction": bal.interaction,
                "constant_C": bal.constant_C, "fit_residual": bal.remainder,
                "sign": sign}

    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        rows = list(pool.map(one, grid))
    for row in rows:
        if not np.isfinite([row[k] for k in CSV_COLUMNS if k != "sign"]).all():
            raise ValueError("floating-point overflow: the sweep row at lambda = "
                             f"{row['lambda']}, gamma = {row['gamma']} holds a "
                             "non-finite number")
    _write_csv(rows, args.output)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument plumbing

def _apply_config(args, parser, argv):
    """Parse ``argv`` again with the config file's values as the defaults of
    the subcommand, so any flag given on the command line wins, even one
    equal to its default."""
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError("config file must hold a JSON object")
    sub = parser.commands[args.command]
    # a config file names no other config file: the key is unknown
    options = {a.dest: a for a in sub._actions
               if a.option_strings and a.default is not argparse.SUPPRESS
               and a.dest != "config"}
    alias = {"lambda": "lam"}
    defaults = {}
    for key, value in conf.items():
        action = options.get(alias.get(key, key.replace("-", "_")))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.nargs == 0:  # a store_true flag
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false, got {value!r}")
        elif action.nargs == "+":
            if not isinstance(value, list):
                raise ValueError(f"config key {key!r} must be a list, got {value!r}")
            value = [_config_value(key, action, v) for v in value]
        else:
            value = _config_value(key, action, value)
        defaults[action.dest] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _config_value(key, action, value):
    """One config value converted by the option's ``type`` as if it were
    typed on the command line; an option without a type takes a string."""
    if action.type is None:
        if not isinstance(value, str):
            raise ValueError(f"config key {key!r} must be a string, got {value!r}")
        return value
    # bool is an int in Python, and null or a list is no number at all
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"config key {key!r} must be a number, got {value!r}")
    try:
        # through str, so that int rejects 1.5 as it does on the command line
        return action.type(str(value))
    except ValueError:
        raise ValueError(f"config key {key!r} must be {action.type.__name__}, "
                         f"got {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylglue",
        description="Numerical checks for the Weyl-energy gluing construction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override every check tolerance")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--config", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_inter = sub.add_parser("interact", help="interaction pairing of two spectra")
    p_inter.add_argument("wm", help="JSON spectrum file for the first factor")
    p_inter.add_argument("wz", help="JSON spectrum file for the second factor")
    p_inter.add_argument("--align", action="store_true",
                         help="also realize the aligned tensors and pair them")
    p_inter.add_argument("--output", default=None)
    p_inter.add_argument("--config", default=None)
    p_inter.set_defaults(func=cmd_interact)

    p_bal = sub.add_parser("balance", help="energy balance of the glued metric")
    p_bal.add_argument("wm")
    p_bal.add_argument("wz")
    p_bal.add_argument("--lambda", dest="lam", type=float, default=None)
    p_bal.add_argument("--gamma", type=float, default=None)
    p_bal.add_argument("--a", type=float, default=None)
    p_bal.add_argument("--auto", type=float, default=None, metavar="MARGIN",
                       help="select parameters automatically for this margin (>= 0)")
    p_bal.add_argument("--output", default=None)
    p_bal.add_argument("--config", default=None)
    p_bal.set_defaults(func=cmd_balance)

    p_sweep = sub.add_parser("sweep", help="bracket sweep over (lambda, gamma) grids")
    p_sweep.add_argument("wm")
    p_sweep.add_argument("wz")
    p_sweep.add_argument("--lambda-grid", type=float, nargs="+", default=None)
    p_sweep.add_argument("--gamma-grid", type=float, nargs="+", default=None)
    p_sweep.add_argument("--output", default=None)
    p_sweep.add_argument("--config", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    # the subcommand parsers, whose defaults a config file replaces
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, parser, argv)
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError:
        # Python float arithmetic on an input too large for it (lam ** 4)
        print("error: floating-point overflow: an input is too large", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
