"""Command-line front end: config ingestion, sweeps, CSV emission, validation.

Subcommands:
  analytic   closed-form outage breakdown at one operating point
  simulate   Monte Carlo estimate at one operating point
  sweep      full (scheme x sensing pair x N x gamma_s) grid as CSV
  validate   analytic-vs-simulation cross check with a PASS/FAIL verdict

External units are dB for both transmit SNRs; linear values never cross the
interface.  Flags override config-file values, and every default is listed in
--help.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .analytic import OutageBreakdown, outage_best_relay, outage_direct, outage_multi_relay
from .model import (
    MAX_RELAYS,
    ChannelVariances,
    Scheme,
    SystemParams,
    db_to_linear,
    snr_threshold,
)
from .montecarlo import MAX_WORKERS, OutageEstimate, estimate_outage

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "SweepSpec",
    "ValidationReport",
    "build_spec",
    "load_config",
    "main",
    "run_sweep",
    "run_validate",
    "validate_points",
]

CSV_HEADER = "scheme,n_relays,pd,pf,gamma_s_db,analytic_outage,mc_outage,mc_stderr,trials,seed"

VALIDATE_MIN_TRIALS = 10_000

RATE_CONVENTION_NOTE = (
    "rate convention: relayed schemes occupy two slots, threshold (2^(2R)-1)/gamma_s; "
    "the direct benchmark occupies one slot, threshold (2^R-1)/gamma_s"
)

_DEFAULTS = {
    "gamma_s_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    "schemes": ["direct", "best", "multi"],
    "sensing_pairs": [[0.9, 0.1]],
    "relay_counts": [6],
    "trials": 0,
    "seed": 12345,
    "p0": 0.8,
    "gamma_p_db": 10.0,
    "rate": 1.0,
    "sigma2_si": 1.0,
    "sigma2_pi": 0.2,
    "sigma2_d": 1.0,
    "sigma2_pd": 0.2,
    "sigma2_sd": 1.0,
}


class ConfigError(ValueError):
    """Config file or flag combination violates the documented schema."""


@dataclass(frozen=True)
class SweepSpec:
    """Fully validated description of one experiment grid."""

    gamma_s_db: tuple[float, ...]
    schemes: tuple[Scheme, ...]
    sensing_pairs: tuple[tuple[float, float], ...]
    relay_counts: tuple[int, ...]
    trials: int
    seed: int
    base: SystemParams


def _require_probability(value, field: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected a number, got {value!r}") from None
    if math.isnan(v) or not 0.0 <= v <= 1.0:
        raise ConfigError(f"{field}: must be in [0,1], got {v}")
    return v


def _require_positive(value, field: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected a number, got {value!r}") from None
    if math.isnan(v) or math.isinf(v) or v <= 0.0:
        raise ConfigError(f"{field}: must be finite and > 0, got {v}")
    return v


def _linear_snr(x_db: float, field: str) -> float:
    """Linear form of a dB value, which must be finite and > 0."""
    try:
        v = db_to_linear(x_db)
    except OverflowError:
        v = math.inf
    if not 0.0 < v < math.inf:
        raise ConfigError(f"{field}: {x_db:g} dB has no finite positive linear value")
    return v


def _variance_vector(value, field: str, relay_counts: tuple[int, ...]) -> tuple[float, ...] | float:
    if isinstance(value, (list, tuple)):
        vec = tuple(_require_positive(x, f"{field}[{i}]") for i, x in enumerate(value))
        if any(len(vec) != n for n in relay_counts):
            raise ConfigError(
                f"{field}: per-relay list of length {len(vec)} does not match "
                f"relay_counts {list(relay_counts)}; use a scalar or a single relay count"
            )
        return vec
    return _require_positive(value, field)


def build_spec(data: dict) -> SweepSpec:
    """Validate a flat config mapping and assemble a SweepSpec.

    Unknown keys are rejected outright so typos cannot silently fall back to
    defaults.
    """
    unknown = sorted(set(data) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(_DEFAULTS)
    cfg.update({k: v for k, v in data.items() if v is not None})

    axis = cfg["gamma_s_db"]
    if not isinstance(axis, (list, tuple)) or not axis:
        raise ConfigError("gamma_s_db: must be a non-empty list of dB values")
    try:
        gamma_s_db = tuple(float(x) for x in axis)
    except (TypeError, ValueError):
        raise ConfigError(f"gamma_s_db: expected a list of numbers, got {axis!r}") from None

    raw_schemes = cfg["schemes"]
    if not isinstance(raw_schemes, (list, tuple)) or not raw_schemes:
        raise ConfigError("schemes: must be a non-empty list")
    try:
        schemes = tuple(dict.fromkeys(Scheme(s) for s in raw_schemes))
    except ValueError:
        valid = ", ".join(s.value for s in Scheme)
        raise ConfigError(f"schemes: entries must be among {{{valid}}}, got {raw_schemes}") from None

    raw_pairs = cfg["sensing_pairs"]
    if not isinstance(raw_pairs, (list, tuple)) or not raw_pairs:
        raise ConfigError("sensing_pairs: must be a non-empty list of [pd, pf] pairs")
    sensing_pairs = []
    for i, pair in enumerate(raw_pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"sensing_pairs[{i}]: expected a [pd, pf] pair, got {pair!r}")
        sensing_pairs.append((
            _require_probability(pair[0], f"sensing_pairs[{i}].pd (pd)"),
            _require_probability(pair[1], f"sensing_pairs[{i}].pf (pf)"),
        ))

    raw_counts = cfg["relay_counts"]
    if not isinstance(raw_counts, (list, tuple)) or not raw_counts:
        raise ConfigError("relay_counts: must be a non-empty list")
    relay_counts = []
    for n in raw_counts:
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_RELAYS:
            raise ConfigError(
                f"relay_counts: each N must be an integer in [1, {MAX_RELAYS}] "
                f"(the cap bounds Monte Carlo batch memory), got {n!r}"
            )
        relay_counts.append(n)
    relay_counts = tuple(relay_counts)

    trials = cfg["trials"]
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 0:
        raise ConfigError(f"trials: must be an integer >= 0 (0 = analytic only), got {trials!r}")
    seed = cfg["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed: must be an integer in [0, 2^64), got {seed!r}")

    p0 = _require_probability(cfg["p0"], "p0")
    rate = _require_positive(cfg["rate"], "rate")
    for x in gamma_s_db:
        try:
            delta = snr_threshold(rate, _linear_snr(x, "gamma_s_db")).delta
        except OverflowError:
            delta = math.inf
        if math.isinf(delta):
            raise ConfigError(
                f"gamma_s_db: at {x:g} dB and rate {rate:g} the decode threshold is not finite"
            )
    try:
        gamma_p_db = float(cfg["gamma_p_db"])
    except (TypeError, ValueError):
        raise ConfigError(f"gamma_p_db: expected a number, got {cfg['gamma_p_db']!r}") from None
    gamma_p = _linear_snr(gamma_p_db, "gamma_p_db")

    s2si = _variance_vector(cfg["sigma2_si"], "sigma2_si", relay_counts)
    s2pi = _variance_vector(cfg["sigma2_pi"], "sigma2_pi", relay_counts)
    s2d = _require_positive(cfg["sigma2_d"], "sigma2_d")
    s2pd = _require_positive(cfg["sigma2_pd"], "sigma2_pd")
    s2sd = _require_positive(cfg["sigma2_sd"], "sigma2_sd")

    for i, (pd, pf) in enumerate(sensing_pairs):
        if p0 * pd + (1.0 - p0) * pf <= 0.0:
            raise ConfigError(
                f"sensing_pairs[{i}]: p0*pd + (1-p0)*pf must be > 0, got pd={pd}, pf={pf}"
            )
    pd0, pf0 = sensing_pairs[0]
    base_n = relay_counts[0]
    try:
        base = SystemParams(
            p0=p0,
            pd=pd0,
            pf=pf0,
            gamma_s=db_to_linear(gamma_s_db[0]),
            gamma_p=gamma_p,
            rate=rate,
            n_relays=base_n,
            variances=_make_variances(base_n, s2si, s2pi, s2d, s2pd, s2sd),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return SweepSpec(
        gamma_s_db=gamma_s_db,
        schemes=schemes,
        sensing_pairs=tuple(sensing_pairs),
        relay_counts=relay_counts,
        trials=trials,
        seed=seed,
        base=base,
    )


def _make_variances(n, s2si, s2pi, s2d, s2pd, s2sd) -> ChannelVariances:
    si = s2si if isinstance(s2si, tuple) else (s2si,) * n
    pi = s2pi if isinstance(s2pi, tuple) else (s2pi,) * n
    return ChannelVariances(
        sigma2_si=si, sigma2_pi=pi, sigma2_d=s2d, sigma2_pd=s2pd, sigma2_sd=s2sd
    )


def _read_config(path: str) -> dict:
    """Read a JSON config file and return its top-level object."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def load_config(path: str) -> SweepSpec:
    """Read and validate a JSON config file (schema: the _DEFAULTS keys)."""
    return build_spec(_read_config(path))


def _params_at(spec: SweepSpec, pd: float, pf: float, n: int, gamma_s_db: float) -> SystemParams:
    base = spec.base
    v = base.variances
    if n == base.n_relays:
        variances = v
    else:
        # build_spec only allows per-relay lists with a single relay count,
        # so any other N here is guaranteed homogeneous
        variances = ChannelVariances.homogeneous(
            n, v.sigma2_si[0], v.sigma2_pi[0], v.sigma2_d, v.sigma2_pd, v.sigma2_sd
        )
    return replace(
        base,
        pd=pd,
        pf=pf,
        gamma_s=db_to_linear(gamma_s_db),
        n_relays=n,
        variances=variances,
    )


def analytic_outage(params: SystemParams, scheme: Scheme) -> OutageBreakdown:
    if scheme is Scheme.MULTI_RELAY:
        return outage_multi_relay(params)
    if scheme is Scheme.BEST_RELAY:
        return outage_best_relay(params)
    return outage_direct(params)


def sweep_points(spec: SweepSpec) -> list[tuple[Scheme, float, float, int, float]]:
    """Grid points in frozen emission order: lexicographic in
    (scheme, pd, pf, n_relays, gamma_s_db)."""
    points = [
        (scheme, pd, pf, n, g)
        for scheme in spec.schemes
        for (pd, pf) in spec.sensing_pairs
        for n in spec.relay_counts
        for g in spec.gamma_s_db
    ]
    points.sort(key=lambda p: (p[0].value, p[1], p[2], p[3], p[4]))
    return points


@dataclass(frozen=True)
class SweepRow:
    scheme: Scheme
    n_relays: int
    pd: float
    pf: float
    gamma_s_db: float
    analytic_outage: float
    estimate: OutageEstimate | None

    def csv_line(self, trials: int, seed: int) -> str:
        if self.estimate is None:
            mc, se = "", ""
        else:
            mc = f"{self.estimate.p_hat:.10g}"
            se = f"{self.estimate.stderr:.10g}"
        return ",".join((
            self.scheme.value,
            str(self.n_relays),
            f"{self.pd:.10g}",
            f"{self.pf:.10g}",
            f"{self.gamma_s_db:.10g}",
            f"{self.analytic_outage:.10g}",
            mc,
            se,
            str(trials),
            str(seed),
        ))


def iter_sweep_rows(spec: SweepSpec, workers: int = 1):
    """Yield one SweepRow per grid point, in emission order.

    Before the first row, one estimate_outage call takes every distinct
    (pd, pf, N, gamma_s) point of the grid, for all of spec.schemes; the
    rows look their estimates up in its result.  That call decides which
    points share draws and starts and stops its own worker pool, so no
    worker is alive when a row is yielded.  A sweep with trials = 0 makes
    no call."""
    points = sweep_points(spec)
    estimates: dict[tuple, OutageEstimate] = {}
    if spec.trials > 0:
        # the distinct grid points, in emission order
        grid = tuple(dict.fromkeys(p[1:] for p in points))
        fused = estimate_outage(
            tuple(_params_at(spec, *q) for q in grid),
            spec.schemes, spec.trials, spec.seed, workers=workers,
        )
        estimates = {
            (s, *q): e for q, per_scheme in zip(grid, fused) for s, e in zip(spec.schemes, per_scheme)
        }
    for point in points:
        scheme, pd, pf, n, g = point
        yield SweepRow(
            scheme=scheme,
            n_relays=n,
            pd=pd,
            pf=pf,
            gamma_s_db=g,
            analytic_outage=analytic_outage(_params_at(spec, pd, pf, n, g), scheme).total,
            estimate=estimates.get(point),
        )


def run_sweep(spec: SweepSpec, out, workers: int = 1) -> int:
    """Stream the sweep CSV to `out`, flushing per row so an interrupted run
    still leaves every completed row valid.  Returns the row count."""
    out.write(CSV_HEADER + "\n")
    out.flush()
    count = 0
    for row in iter_sweep_rows(spec, workers=workers):
        out.write(row.csv_line(spec.trials, spec.seed) + "\n")
        out.flush()
        count += 1
    return count


def _z_score(analytic: float, p_hat: float, stderr: float, trials: int) -> float:
    # the empirical stderr collapses to 0 when no trial hits a rare event; the
    # analytic-implied binomial stderr keeps the test meaningful there
    floor = math.sqrt(analytic * (1.0 - analytic) / trials)
    scale = max(stderr, floor)
    if scale == 0.0:
        return 0.0 if analytic == p_hat else math.inf
    return abs(analytic - p_hat) / scale


# Two-sided standard-normal tail beyond z = 3: the chance that one
# informative point exceeds the PASS rule's z limit on correct code.
_Z_EXCEED_PROB = math.erfc(3.0 / math.sqrt(2.0))


def _false_fail_probability(informative: int, n_points: int) -> float:
    """P(Binomial(informative, _Z_EXCEED_PROB) > c), c being the most
    exceedances the PASS rule allows: the largest count below 1% of the
    points.  Points expecting no outage at all cannot exceed, so only the
    informative ones count."""
    allowed = math.ceil(0.01 * n_points) - 1
    log_q = math.log(_Z_EXCEED_PROB)
    log_p = math.log1p(-_Z_EXCEED_PROB)
    pass_terms = [
        math.exp(
            math.lgamma(informative + 1) - math.lgamma(j + 1) - math.lgamma(informative - j + 1)
            + j * log_q + (informative - j) * log_p
        )
        for j in range(min(allowed, informative) + 1)
    ]
    return min(max(1.0 - math.fsum(pass_terms), 0.0), 1.0)


@dataclass(frozen=True)
class ValidationReport:
    """z-statistics of every grid point plus the overall verdict.

    ``informative`` counts the points expecting at least one outage in
    their trials; ``false_fail_probability`` is the chance that the PASS
    rule fails on correct code, given that many informative points."""

    n_points: int
    max_z: float
    exceedances: tuple[tuple[str, float], ...]
    passed: bool
    informative: int
    false_fail_probability: float

    def render(self) -> str:
        lines = [
            f"points checked:   {self.n_points}",
            f"informative:      {self.informative} (expected outage count >= 1)",
            f"false-fail prob:  {self.false_fail_probability:.3g} (PASS rule on correct code)",
            f"max |z|:          {self.max_z:.3f}",
            f"points with z>3:  {len(self.exceedances)}",
        ]
        for label, z in self.exceedances:
            lines.append(f"  z={z:.2f}  {label}")
        lines.append("verdict:          " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def validate_points(rows: list[SweepRow], trials: int) -> ValidationReport:
    """Cross-check analytic vs Monte Carlo values: z = |analytic - mc| / stderr
    per point; PASS iff fewer than 1% of points exceed z = 3."""
    max_z = 0.0
    exceed = []
    for row in rows:
        z = _z_score(row.analytic_outage, row.estimate.p_hat, row.estimate.stderr, trials)
        max_z = max(max_z, z)
        if z > 3.0:
            label = (
                f"scheme={row.scheme.value} n={row.n_relays} pd={row.pd:g} "
                f"pf={row.pf:g} gamma_s={row.gamma_s_db:g}dB "
                f"analytic={row.analytic_outage:.6g} mc={row.estimate.p_hat:.6g}"
            )
            exceed.append((label, z))
    passed = len(exceed) < 0.01 * len(rows)
    informative = sum(trials * row.analytic_outage >= 1.0 for row in rows)
    return ValidationReport(
        n_points=len(rows),
        max_z=max_z,
        exceedances=tuple(exceed),
        passed=passed,
        informative=informative,
        false_fail_probability=_false_fail_probability(informative, len(rows)),
    )


def _check_validate_trials(trials: int) -> None:
    if trials < VALIDATE_MIN_TRIALS:
        raise ConfigError(
            f"validate needs trials >= {VALIDATE_MIN_TRIALS} for the z test to "
            f"mean anything, got {trials}"
        )


def run_validate(spec: SweepSpec, workers: int = 1) -> ValidationReport:
    _check_validate_trials(spec.trials)
    rows = list(iter_sweep_rows(spec, workers=workers))
    return validate_points(rows, spec.trials)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _parse_scheme_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip() != ""]


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file (flags win over file values)")
    parser.add_argument("--gamma-s-db", type=_parse_float_list, metavar="LIST",
                        help=f"secondary SNR sweep axis in dB (default {_DEFAULTS['gamma_s_db']})")
    parser.add_argument("--scheme", type=_parse_scheme_list, metavar="LIST",
                        help="subset of direct,best,multi (default all)")
    parser.add_argument("--pd", type=float, metavar="F",
                        help="detection probability of a hole (replaces sensing_pairs)")
    parser.add_argument("--pf", type=float, metavar="F",
                        help="false-alarm probability of a hole (replaces sensing_pairs)")
    parser.add_argument("--n-relays", type=_parse_int_list, metavar="LIST",
                        help=f"relay counts to sweep (default {_DEFAULTS['relay_counts']})")
    parser.add_argument("--trials", type=int, metavar="INT",
                        help="Monte Carlo trials per grid point (0 = analytic only)")
    parser.add_argument("--seed", type=int, metavar="INT",
                        help=f"base RNG seed (default {_DEFAULTS['seed']})")
    parser.add_argument("--workers", type=int, default=1, metavar="INT",
                        help=f"Monte Carlo worker processes, 1 to {MAX_WORKERS}; one pool "
                             "serves the whole run, and results are identical for any value")
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogrelay",
        description=(
            "Outage probability of relay-assisted secondary transmission under "
            "imperfect spectrum sensing: closed forms, Monte Carlo simulation, "
            "and cross-validation."
        ),
        epilog=(
            f"Defaults: {json.dumps(_DEFAULTS)}. Config files are JSON objects "
            "with those same keys; sigma2_si/sigma2_pi also accept per-relay "
            f"lists. {RATE_CONVENTION_NOTE}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("analytic", "closed-form outage breakdown at the first grid point"),
        ("simulate", "Monte Carlo outage estimate at the first grid point"),
        ("sweep", "emit the full sweep grid as CSV"),
        ("validate", "cross-check closed forms vs simulation; exit 0 on PASS"),
    ):
        p = sub.add_parser(name, help=desc, description=desc)
        _add_common_flags(p)
    return parser


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    data = _read_config(args.config) if args.config else {}
    if args.gamma_s_db is not None:
        data["gamma_s_db"] = args.gamma_s_db
    if args.scheme is not None:
        data["schemes"] = args.scheme
    if args.pd is not None or args.pf is not None:
        try:
            pd, pf = data.get("sensing_pairs", _DEFAULTS["sensing_pairs"])[0]
        except (TypeError, ValueError, IndexError, KeyError):
            pd = pf = None
        pd = args.pd if args.pd is not None else pd
        pf = args.pf if args.pf is not None else pf
        data["sensing_pairs"] = [[pd, pf]]
    if args.n_relays is not None:
        data["relay_counts"] = args.n_relays
    if args.trials is not None:
        data["trials"] = args.trials
    if args.seed is not None:
        data["seed"] = args.seed
    return build_spec(data)


def _first_point(spec: SweepSpec) -> tuple[float, float, int, float]:
    pd, pf = spec.sensing_pairs[0]
    return pd, pf, spec.relay_counts[0], spec.gamma_s_db[0]


def _cmd_analytic(spec: SweepSpec, args, out) -> int:
    pd, pf, n, g = _first_point(spec)
    params = _params_at(spec, pd, pf, n, g)
    print(f"# operating point: gamma_s={g:g} dB, pd={pd:g}, pf={pf:g}, N={n}", file=out)
    print(f"# {RATE_CONVENTION_NOTE}", file=out)
    for scheme in spec.schemes:
        b = analytic_outage(params, scheme)
        print(
            f"{scheme.value:>6}: total={b.total:.10g}  empty_h0={b.empty_h0:.10g}  "
            f"empty_h1={b.empty_h1:.10g}  nonempty_h0={b.nonempty_h0:.10g}  "
            f"nonempty_h1={b.nonempty_h1:.10g}",
            file=out,
        )
    return 0


def _cmd_simulate(spec: SweepSpec, args, out) -> int:
    pd, pf, n, g = _first_point(spec)
    params = _params_at(spec, pd, pf, n, g)
    print(f"# operating point: gamma_s={g:g} dB, pd={pd:g}, pf={pf:g}, N={n}", file=out)
    print(f"# {RATE_CONVENTION_NOTE}", file=out)
    estimates = estimate_outage(params, spec.schemes, spec.trials, spec.seed, workers=args.workers)
    for scheme, est in zip(spec.schemes, estimates):
        print(
            f"{scheme.value:>6}: p_hat={est.p_hat:.10g}  stderr={est.stderr:.10g}  "
            f"trials={est.trials}  seed={est.seed}",
            file=out,
        )
    return 0


def _cmd_sweep(spec: SweepSpec, args, out) -> int:
    run_sweep(spec, out, workers=args.workers)
    return 0


def _cmd_validate(spec: SweepSpec, args, out) -> int:
    report = run_validate(spec, workers=args.workers)
    print(f"# {RATE_CONVENTION_NOTE}", file=out)
    print(report.render(), file=out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if not 1 <= args.workers <= MAX_WORKERS:
            raise ConfigError(f"workers: must be an integer in [1, {MAX_WORKERS}], got {args.workers}")
        # checked before --out is opened, which truncates it
        if args.command == "simulate" and spec.trials < 1:
            raise ConfigError("simulate needs --trials >= 1")
        if args.command == "validate":
            _check_validate_trials(spec.trials)
        handler = {
            "analytic": _cmd_analytic,
            "simulate": _cmd_simulate,
            "sweep": _cmd_sweep,
            "validate": _cmd_validate,
        }[args.command]
        if args.out:
            try:
                fh = open(args.out, "w", encoding="utf-8", newline="")
            except OSError as exc:
                raise ConfigError(f"out: cannot open {args.out!r}: {exc.strerror}") from None
            with fh:
                return handler(spec, args, fh)
        return handler(spec, args, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the interpreter's
        # final flush cannot raise again (the SIGPIPE note in Python's
        # signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
