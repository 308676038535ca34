"""Command-line front door.

Subcommands map one-to-one onto the library: ``count`` and ``sample`` expose
the bridge combinatorics and sampler, ``transprob`` the transition-probability
engines (bridge sampling, straight simulation, closed form), ``simulate`` the
forward simulator, ``filter``/``scan-failure``/``fit`` the epidemic filtering
stack.  Options shared by several subcommands are declared once, in parent
parsers.  Structured results are JSON with every float printed to 17
significant digits so reruns can be compared byte-for-byte; matrices and paths
are CSV; both go through one sink (stdout, or the ``--output`` file).

Exit codes, set in ``main`` alone: 0 success, 1 usage error, 2 domain/data
error, 141 (128 + SIGPIPE, no message) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from contextlib import contextmanager
from importlib import resources

import numpy as np

from . import filters, inference, likelihood, models, reference
from .counting import BridgeSpec, bridge_count, log_simplex_density
from .errors import CapacityError, DataFormatError, ZeroMeasureSpace
from .sampler import RngStream, sample_bridges

DEFAULT_SEED = 20240817
SEED_ENV_VAR = "BDBRIDGE_SEED"

#: Unopenable files (``--data``, ``--output``, ``--surface-out``) are data errors.
_DOMAIN_ERRORS = (ValueError, CapacityError, ZeroMeasureSpace, OSError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _dump_json(obj) -> str:
    """Compact JSON with floats at 17 significant digits."""
    out = io.StringIO()

    def walk(node):
        if isinstance(node, dict):
            out.write("{")
            for k, (key, val) in enumerate(node.items()):
                if k:
                    out.write(", ")
                out.write(f'"{key}": ')
                walk(val)
            out.write("}")
        elif isinstance(node, (list, tuple, np.ndarray)):
            out.write("[")
            seq = node.tolist() if isinstance(node, np.ndarray) else node
            for k, val in enumerate(seq):
                if k:
                    out.write(", ")
                walk(val)
            out.write("]")
        elif isinstance(node, bool) or node is None:
            out.write({True: "true", False: "false", None: "null"}[node])
        elif isinstance(node, (float, np.floating)):
            out.write(_fmt_float(float(node)))
        elif isinstance(node, (int, np.integer)):
            out.write(str(int(node)))
        else:
            out.write('"' + str(node).replace("\\", "\\\\").replace('"', '\\"') + '"')

    walk(obj)
    return out.getvalue()


def _parse_params(text: str) -> dict:
    out = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"bad parameter {chunk!r}, expected key=value")
        key, val = chunk.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise UsageError(f"bad parameter {chunk!r}, value is not a number") from None
    return out


def _build_model(name: str, params: dict):
    if name == "lbdi":
        p = models.LBDIParams(
            lam=params.get("lambda", params.get("lam", 0.0)),
            mu=params.get("mu", 0.0),
            nu=params.get("nu", 0.0),
        )
        return models.lbdi_model(p), p
    if name == "sis":
        p = models.SISParams(n0=params["n0"], beta=params["beta"], gamma=params["gamma"])
        return models.sis_model(p), p
    if name == "sir":
        p = models.SIRParams(n0=params["n0"], beta=params["beta"], gamma=params["gamma"])
        if "s0" not in params:
            raise UsageError("model sir requires s0=<initial susceptibles>")
        return models.sir_as_bd(p, params["s0"]), p
    raise UsageError(f"unknown model {name!r}")


def _parse_range(text: str) -> inference.GridSpec:
    try:
        lo, hi, steps = text.split(":")
        return inference.GridSpec(float(lo), float(hi), int(steps))
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected lo:hi:steps") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _parse_bound(text: str):
    if text.lower() == "none":
        return None
    if text.lower() in ("-inf", "inf", "+inf"):
        return float(text)
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, none or an infinity, got {text!r}") from None


def shigellosis_path() -> str:
    return str(resources.files("bdbridge").joinpath("data/shigellosis.csv"))


def load_observations(path) -> filters.Observations:
    """Read a ``time,S`` CSV (comment lines starting with # are skipped); every
    :class:`DataFormatError`, those of ``filters.Observations`` too, names the file."""
    times, sus = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh)
                if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise DataFormatError(f"{path}: empty observation file")
    header = [c.strip() for c in rows[0]]
    if header[:2] != ["time", "S"]:
        raise DataFormatError(f"{path}: expected header 'time,S', got {rows[0]}")
    for k, row in enumerate(rows[1:], start=1):
        try:
            times.append(float(row[0]))
            sus.append(float(row[1]))
        except (ValueError, IndexError) as exc:
            raise DataFormatError(f"{path}: malformed row {k}: {row}") from exc
    try:
        return filters.Observations(np.array(times), np.array(sus))
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def load_shigellosis() -> filters.Observations:
    return load_observations(shigellosis_path())


@contextmanager
def _sink(path):
    """Where a result goes: stdout for no path or '-', otherwise the file."""
    if not path or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _write_csv(path, header, rows):
    with _sink(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                _fmt_float(v) if isinstance(v, (float, np.floating)) else v
                for v in row
            ])


def _grid_rows(beta_grid, gamma_grid, *cells) -> list[tuple]:
    """One CSV row per grid point, beta outermost: beta, gamma, then the
    point's value in each (n_beta, n_gamma) array of ``cells``."""
    return [(float(beta), float(gamma), *(cell[a, b] for cell in cells))
            for a, beta in enumerate(beta_grid) for b, gamma in enumerate(gamma_grid)]


def _emit(path, result: dict):
    with _sink(path) as out:
        print(_dump_json(result), file=out)


def _bridge_spec(args) -> BridgeSpec:
    return BridgeSpec(i=args.i, j=args.j, up_jumps=args.B, t=args.t,
                      lower=args.l, upper=args.u)


def _cmd_count(args):
    spec = _bridge_spec(args)
    n = bridge_count(spec)
    log_density = log_simplex_density(spec.jumps, spec.t) - math.log(n) if n > 0 else None
    _emit(args.output, {
        "i": spec.i, "j": spec.j, "up_jumps": spec.up_jumps, "t": spec.t,
        "lower": spec.lower, "upper": spec.upper,
        "count": n, "log_density": log_density, "feasible": n > 0,
    })


def _cmd_sample(args):
    times, states = sample_bridges(_bridge_spec(args), args.n, RngStream(args.seed))
    rows = [(rep, k, tau, omega)
            for rep, (row_t, row_s) in enumerate(zip(times.tolist(), states.tolist()))
            for k, (tau, omega) in enumerate(zip(row_t, row_s))]
    _write_csv(args.output, ["replicate_id", "k", "tau_k", "omega_k"], rows)


def _cmd_transprob(args):
    model, params = _build_model(args.model, _parse_params(args.params))
    rng = RngStream(args.seed)
    if args.method == "closed":
        if args.model != "lbdi":
            raise UsageError("--method closed is only available for the lbdi model")
        value = reference.lbdi_transition(params, args.i, args.j, args.t)
        _emit(args.output, {
            "method": "closed", "model": args.model, "i": args.i, "j": args.j,
            "t": args.t, "value": value,
            "log_value": math.log(value) if value > 0 else float("-inf"),
        })
        return
    if args.method == "straight":
        est = reference.straight_estimate(model, args.i, args.j, args.t, args.n, rng)
        bset = None
    else:
        if args.bmax is not None:
            b_min = max(0, args.j - args.i)
            if args.bmax < b_min:
                raise UsageError(f"--bmax {args.bmax} is below {b_min}, the fewest "
                                 f"up jumps from {args.i} to {args.j}")
            bset = likelihood.BSet(tuple(range(b_min, args.bmax + 1)))
        else:
            bset = likelihood.choose_bset(args.i, args.j, model, args.t,
                                          args.eps, rng.child(1))
        est = likelihood.estimate_pij(model, args.i, args.j, args.t, bset,
                                      args.n, rng.child(2), threads=args.threads)
    _emit(args.output, {
        "method": args.method, "model": args.model, "i": args.i, "j": args.j,
        "t": args.t, "n": est.n, "value": est.value, "std_error": est.std_error,
        "log_value": est.log_value, "log_std_error": est.log_std_error,
        "bset": list(bset) if bset is not None else None,
        "seed": args.seed, "threads": args.threads,
    })


def _cmd_simulate(args):
    model, _ = _build_model(args.model, _parse_params(args.params))
    rng = RngStream(args.seed)
    path = reference.gillespie_simulate(model, args.y0, args.t, rng)
    rows = [(float(tv), int(sv)) for tv, sv in zip(path.times, path.states)]
    rows.append((float(path.horizon), path.final_state))
    _write_csv(args.output, ["time", "state"], rows)


def _cmd_filter(args):
    obs = load_observations(args.data)
    params_in = _parse_params(args.params)
    params = models.SIRParams(n0=params_in.get("n0", obs.population(args.i0)),
                              beta=params_in["beta"], gamma=params_in["gamma"])
    rng = RngStream(args.seed)
    trace: list = []
    loglik, final = filters.run_filter(params, obs, args.i0, args.m, rng, trace=trace)
    _emit(args.output, {
        "loglik": loglik,
        "per_step": trace,
        "posterior_final": final.posterior,
        "i0": args.i0, "m": args.m, "seed": args.seed,
    })


def _cmd_scan_failure(args):
    obs = load_observations(args.data)
    rng = RngStream(args.seed)
    scan = filters.failure_domain_scan(
        obs, _parse_range(args.beta_range).values(),
        _parse_range(args.gamma_range).values(),
        args.particles, (0.001, 0.0001), rng, i0=args.i0,
    )
    rows = _grid_rows(scan.beta_grid, scan.gamma_grid, scan.survival_min,
                      *scan.failed.astype(int))
    _write_csv(args.output, ["beta", "gamma", "survival_min", "failed_0p1", "failed_0p01"], rows)


def _cmd_fit(args):
    obs = load_observations(args.data)
    config = inference.SearchConfig(
        beta=_parse_range(args.beta_range),
        gamma=_parse_range(args.gamma_range),
        refinements=args.refinements,
        replications=args.replications,
        threads=args.threads,
    )
    rng = RngStream(args.seed)
    fit = inference.fit_mle(obs, config, args.m, rng, i0=args.i0)
    if args.surface_out:
        surf = fit.surface
        _write_csv(args.surface_out, ["beta", "gamma", "loglik", "loglik_sd"],
                   _grid_rows(surf.beta_grid, surf.gamma_grid, surf.mean, surf.spread))
    _emit(args.output, {
        "beta_hat": fit.beta_hat, "gamma_hat": fit.gamma_hat,
        "ci_beta": list(fit.ci_beta), "ci_gamma": list(fit.ci_gamma),
        "ci_beta_at_edge": list(fit.ci_beta_at_edge),
        "ci_gamma_at_edge": list(fit.ci_gamma_at_edge),
        "r0": fit.r0, "loglik_max": fit.loglik_max,
        "boundary_warning": fit.boundary_warning,
        "ci_method": "profile likelihood, chi-square(1) 95% drop of 1.92",
        "m": args.m, "replications": args.replications, "seed": args.seed,
    })


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="bdbridge",
                     description="Birth-death bridge sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    bridge = _Parser(add_help=False)
    bridge.add_argument("--i", type=int, required=True)
    bridge.add_argument("--j", type=int, required=True)
    bridge.add_argument("--B", type=int, required=True, dest="B")
    bridge.add_argument("--l", type=_parse_bound, default=None)
    bridge.add_argument("--u", type=_parse_bound, default=None)
    bridge.add_argument("--t", type=float, default=1.0)

    model = _Parser(add_help=False)
    model.add_argument("--model", required=True, choices=["lbdi", "sis", "sir"])
    model.add_argument("--params", required=True, help="comma-separated key=value")

    record = _Parser(add_help=False)
    record.add_argument("--data", required=True, help="CSV with header time,S")
    record.add_argument("--i0", type=int, default=1)

    grid = _Parser(add_help=False)
    grid.add_argument("--beta-range", required=True, help="lo:hi:steps")
    grid.add_argument("--gamma-range", required=True, help="lo:hi:steps")

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=seed,
                        help=f"random seed (default {seed}, env {SEED_ENV_VAR})")
    common.add_argument("--output", "-o", help="output path ('-' or omit for stdout)")

    p = sub.add_parser("count", parents=[bridge, common],
                       help="exact bridge count and log-density")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sample", parents=[bridge, common], help="draw bridge paths as CSV")
    p.add_argument("--n", type=_positive_int, default=1, help="number of replicate paths")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("transprob", parents=[model, common],
                       help="transition probability estimate")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=_positive_int, default=100_000,
                   help="paths drawn; igbs splits them over the up-jump counts "
                        "by each count's pilot spread, at least 2 per count")
    p.add_argument("--method", choices=["igbs", "straight", "closed"], default="igbs")
    p.add_argument("--bmax", type=int, default=None,
                   help="fixed upper end of the up-jump set")
    p.add_argument("--eps", type=float, default=1e-4,
                   help="adaptive up-jump set tolerance (used when --bmax absent)")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="threads over sample blocks")
    p.set_defaults(func=_cmd_transprob)

    p = sub.add_parser("simulate", parents=[model, common],
                       help="forward-simulate one trajectory as CSV")
    p.add_argument("--y0", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("filter", parents=[record, common],
                       help="sequential filter log-likelihood")
    p.add_argument("--params", required=True, help="beta=...,gamma=...[,n0=...]")
    p.add_argument("--m", type=_positive_int, default=10_000, help="replicates per step")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("scan-failure", parents=[record, grid, common],
                       help="bootstrap-filter failure domain scan")
    p.add_argument("--particles", type=_positive_int, default=100_000)
    p.set_defaults(func=_cmd_scan_failure)

    p = sub.add_parser("fit", parents=[record, grid, common],
                       help="maximum likelihood fit of (beta, gamma)")
    p.add_argument("--m", type=_positive_int, default=10_000)
    p.add_argument("--replications", type=_positive_int, default=5)
    p.add_argument("--refinements", type=_positive_int, default=2)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes for grid cells")
    p.add_argument("--surface-out", default=None,
                   help="also dump the full-span surface CSV here")
    p.set_defaults(func=_cmd_fit)

    return parser


_BOUND_FLAGS = ("--l", "--u")


def _join_negative_infinity(argv: list[str]) -> list[str]:
    """Write ``--l -inf`` as ``--l=-inf``: argparse reads a bare ``-inf`` as a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _BOUND_FLAGS and arg.lower() == "-inf":
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_negative_infinity(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        # Flush inside the try, so a reader that closed stdout early is seen here.
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # The reader stopped early (``| head``): exit as if killed by SIGPIPE,
        # silently.  Pointing stdout at devnull keeps the flush at interpreter
        # shutdown from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"usage error: missing parameter {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
