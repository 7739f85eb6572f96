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
import re
import sys
from dataclasses import dataclass, replace
from itertools import product
from typing import TYPE_CHECKING, Iterator

from .analytic import OutageBreakdown, outage_best_relay, outage_direct, outage_multi_relay
from .model import (
    MAX_RELAYS,
    MAX_WORKERS,
    ChannelVariances,
    Scheme,
    SystemParams,
    _ThresholdNotFinite,
    db_to_linear,
    snr_threshold,
)

if TYPE_CHECKING:
    from .montecarlo import OutageEstimate

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "SweepSpec",
    "ValidationReport",
    "build_spec",
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
    """Fully validated description of one experiment grid.

    Every axis holds each value once, in the order first given.  ``lines``
    holds one SystemParams per (sensing pair, N) line, in (pair, N) order,
    at the first gamma_s; every grid point is its line at its own gamma_s."""

    gamma_s_db: tuple[float, ...]
    schemes: tuple[Scheme, ...]
    trials: int
    seed: int
    lines: tuple[SystemParams, ...]

    @property
    def base(self) -> SystemParams:
        """The first grid point: first sensing pair, first N, first gamma_s."""
        return self.lines[0]


def _cut(text: str) -> str:
    """`text` for an error line, cut to its first 20 characters and its length when long."""
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def _digit_count(n: int) -> int:
    """The decimal digits of an int n >= 0, counted without converting n to text."""
    digits = max(1, int(n.bit_length() * math.log10(2)))  # the count or just below it
    while n >= 10**digits:
        digits += 1
    return digits


def _shown(value) -> str:
    """repr(value) for an error line, cut like `_cut` when long.  A long int
    is cut before any conversion to text, so one past Python's str() digit
    limit is shown too: its first 20 characters and its digit count."""
    if not isinstance(value, int) or isinstance(value, bool):
        return _cut(repr(value))
    sign = "-" if value < 0 else ""
    digits = _digit_count(abs(value))
    if len(sign) + digits <= 40:
        return repr(value)
    return f"{sign}{abs(value) // 10 ** (len(sign) + digits - 20)}... ({digits} digits)"


def _number(value, field: str) -> float:
    # JSON numbers only: true, false and strings are not numbers
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value) + 0.0  # -0.0 -> 0.0, printed "0"
        except OverflowError:
            raise ConfigError(f"{field}: integer out of range, got {_shown(value)}") from None
    raise ConfigError(f"{field}: expected a number, got {_shown(value)}")


def _integer(value, field: str, lo: int, hi: float, rule: str) -> int:
    """`value` if it is an integer in [lo, hi]; ConfigError "field: rule" if not."""
    if isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi:
        return value
    raise ConfigError(f"{field}: {rule}, got {_shown(value)}")


def _nonempty_list(value, field: str, of: str = "") -> list | tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{field}: must be a non-empty list{of}")
    return value


def _linear_snr(x_db: float, field: str) -> float:
    """Linear form of a dB value, which must be finite and nonzero."""
    try:
        v = db_to_linear(x_db)
    except OverflowError:
        v = math.inf
    if v == 0.0 or not math.isfinite(v):
        raise ConfigError(f"{field}: {x_db:g} dB has no finite positive linear value")
    return v


def _variance_vector(value, field: str, relay_counts: tuple[int, ...]) -> tuple[float, ...] | float:
    if isinstance(value, (list, tuple)):
        vec = tuple(_number(x, f"{field}[{i}]") for i, x in enumerate(value))
        if any(len(vec) != n for n in relay_counts):
            raise ConfigError(
                f"{field}: per-relay list of length {len(vec)} does not match "
                f"relay_counts {list(relay_counts)}; use a scalar or a single relay count"
            )
        return vec
    return _number(value, field)


def build_spec(data: dict) -> SweepSpec:
    """Validate a flat config mapping and assemble a SweepSpec.

    Unknown keys are rejected outright so typos cannot silently fall back to
    defaults.  A value repeated on an axis is kept at its first occurrence
    only.  This checks types, list shapes and the dB axes; the value
    ranges are those of the model, which checks the rate and the decode
    threshold of the whole gamma_s axis, and every line, before the first
    row.
    """
    unknown = sorted(set(data) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(_DEFAULTS)
    cfg.update({k: v for k, v in data.items() if v is not None})

    axis = _nonempty_list(cfg["gamma_s_db"], "gamma_s_db", " of dB values")
    gamma_s_db = tuple(dict.fromkeys(_number(x, f"gamma_s_db[{i}]") for i, x in enumerate(axis)))
    gamma_s = [_linear_snr(x, "gamma_s_db") for x in gamma_s_db]

    raw_schemes = _nonempty_list(cfg["schemes"], "schemes")
    try:
        schemes = tuple(dict.fromkeys(Scheme(s) for s in raw_schemes))
    except ValueError:
        valid = ", ".join(s.value for s in Scheme)
        raise ConfigError(f"schemes: entries must be among {{{valid}}}, got {_shown(raw_schemes)}") from None

    sensing_pairs = {}  # (pd, pf) -> index of its first occurrence
    for i, pair in enumerate(_nonempty_list(cfg["sensing_pairs"], "sensing_pairs", " of [pd, pf] pairs")):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"sensing_pairs[{i}]: expected a [pd, pf] pair, got {_shown(pair)}")
        sensing_pairs.setdefault((_number(pair[0], f"sensing_pairs[{i}].pd"),
                                  _number(pair[1], f"sensing_pairs[{i}].pf")), i)

    # checked here, not left to SystemParams: N sizes the variance tuples
    relay_counts = tuple(dict.fromkeys(
        _integer(n, "relay_counts", 1, MAX_RELAYS, f"each N must be an integer in [1, {MAX_RELAYS}] "
                 "(the cap bounds Monte Carlo batch memory)")
        for n in _nonempty_list(cfg["relay_counts"], "relay_counts")
    ))
    trials = _integer(cfg["trials"], "trials", 0, math.inf, "must be an integer >= 0 (0 = analytic only)")
    seed = _integer(cfg["seed"], "seed", 0, 2**64 - 1, "must be an integer in [0, 2^64)")

    p0 = _number(cfg["p0"], "p0")
    rate = _number(cfg["rate"], "rate")
    gamma_p = _linear_snr(_number(cfg["gamma_p_db"], "gamma_p_db"), "gamma_p_db")
    s2si = _variance_vector(cfg["sigma2_si"], "sigma2_si", relay_counts)
    s2pi = _variance_vector(cfg["sigma2_pi"], "sigma2_pi", relay_counts)
    s2d = _number(cfg["sigma2_d"], "sigma2_d")
    s2pd = _number(cfg["sigma2_pd"], "sigma2_pd")
    s2sd = _number(cfg["sigma2_sd"], "sigma2_sd")

    # The model checks the values and names the field at fault.  The decode
    # threshold is largest at the smallest gamma_s, and 2^(2R) overflows
    # whatever gamma_s is, so one call there checks the whole axis; a line's
    # error also gives the index of its sensing pair.
    variances = {}
    try:
        for n in relay_counts:
            variances[n] = ChannelVariances(
                sigma2_si=s2si if isinstance(s2si, tuple) else (s2si,) * n,
                sigma2_pi=s2pi if isinstance(s2pi, tuple) else (s2pi,) * n,
                sigma2_d=s2d, sigma2_pd=s2pd, sigma2_sd=s2sd,
            )
        snr_threshold(rate, min(gamma_s))
    except _ThresholdNotFinite:
        raise ConfigError(
            f"gamma_s_db: at {min(gamma_s_db):g} dB and rate {rate:g} the decode threshold is not finite"
        ) from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = []
    for ((pd, pf), i), n in product(sensing_pairs.items(), relay_counts):
        try:
            lines.append(SystemParams(
                p0=p0, pd=pd, pf=pf, gamma_s=gamma_s[0], gamma_p=gamma_p,
                rate=rate, variances=variances[n],
            ))
        except ValueError as exc:
            raise ConfigError(f"{exc} (sensing_pairs[{i}])") from None

    return SweepSpec(
        gamma_s_db=gamma_s_db,
        schemes=schemes,
        trials=trials,
        seed=seed,
        lines=tuple(lines),
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
    except (RecursionError, ValueError) as exc:
        # nesting too deep to parse, or an integer over int()'s digit limit
        raise ConfigError(f"{path}: cannot parse: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def _params_at(line: SystemParams, gamma_s_db: float) -> SystemParams:
    return replace(line, gamma_s=db_to_linear(gamma_s_db))


def analytic_outage(params: SystemParams, scheme: Scheme) -> OutageBreakdown:
    if scheme is Scheme.MULTI_RELAY:
        return outage_multi_relay(params)
    if scheme is Scheme.BEST_RELAY:
        return outage_best_relay(params)
    return outage_direct(params)


def estimate_outage(params, schemes, trials, seed, workers=1):
    """``montecarlo.estimate_outage``, imported on the first call, so that a
    run that never simulates never loads numpy or the process pool."""
    from . import montecarlo
    return montecarlo.estimate_outage(params, schemes, trials, seed, workers=workers)


def sweep_points(spec: SweepSpec) -> Iterator[tuple[Scheme, float, float, int, float]]:
    """Yield the grid points in frozen emission order, lexicographic in
    (scheme, pd, pf, n_relays, gamma_s_db), without building the grid."""
    schemes = sorted(spec.schemes, key=lambda s: s.value)
    plane = sorted((p.pd, p.pf, p.n_relays) for p in spec.lines)
    for scheme, (pd, pf, n), g in product(schemes, plane, sorted(spec.gamma_s_db)):
        yield scheme, pd, pf, n, g


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

    Before the first row, one estimate_outage call takes every
    (pd, pf, N, gamma_s) point of the grid once, for all of spec.schemes; the
    rows look their estimates up in its result.  That call decides which
    points share draws and starts and stops its own worker pool, so no
    worker is alive when a row is yielded.  A sweep with trials = 0 makes
    no call and never imports montecarlo; its rows stream from sweep_points,
    so the first row waits only for its own closed form."""
    lines = {(p.pd, p.pf, p.n_relays): p for p in spec.lines}
    estimates: dict[tuple, OutageEstimate] = {}
    if spec.trials > 0:
        # the distinct grid points, in emission order
        grid = tuple(dict.fromkeys(p[1:] for p in sweep_points(spec)))
        fused = estimate_outage(
            tuple(_params_at(lines[pd, pf, n], g) for pd, pf, n, g in grid),
            spec.schemes, spec.trials, spec.seed, workers=workers,
        )
        estimates = {
            (s, *q): e for q, per_scheme in zip(grid, fused) for s, e in zip(spec.schemes, per_scheme)
        }
    for point in sweep_points(spec):
        scheme, pd, pf, n, g = point
        yield SweepRow(
            scheme=scheme,
            n_relays=n,
            pd=pd,
            pf=pf,
            gamma_s_db=g,
            analytic_outage=analytic_outage(_params_at(lines[pd, pf, n], g), scheme).total,
            estimate=estimates.get(point),
        )


def run_sweep(spec: SweepSpec, out, workers: int = 1) -> None:
    """Stream the sweep CSV to `out`, flushing per row so an interrupted run
    still leaves every completed row valid."""
    out.write(CSV_HEADER + "\n")
    out.flush()
    for row in iter_sweep_rows(spec, workers=workers):
        out.write(row.csv_line(spec.trials, spec.seed) + "\n")
        out.flush()


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


def _allowed_exceedances(n_points: int) -> int:
    """The most points past z = 3 that the PASS rule allows: the largest
    count below 1% of the points."""
    return math.ceil(0.01 * n_points) - 1


def _false_fail_probability(informative: int, n_points: int) -> float:
    """P(Binomial(informative, _Z_EXCEED_PROB) > c), c being
    ``_allowed_exceedances(n_points)``.  Points expecting no outage at all
    cannot exceed, so only the informative ones count."""
    allowed = _allowed_exceedances(n_points)
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
    passed = len(exceed) <= _allowed_exceedances(len(rows))
    informative = sum(trials * row.analytic_outage >= 1.0 for row in rows)
    return ValidationReport(
        n_points=len(rows),
        max_z=max_z,
        exceedances=tuple(exceed),
        passed=passed,
        informative=informative,
        false_fail_probability=_false_fail_probability(informative, len(rows)),
    )


def _check_trials(command: str, trials: int, fewest: int) -> None:
    if trials < fewest:
        raise ConfigError(f"{command} needs --trials >= {fewest}, got {trials}")


def run_validate(spec: SweepSpec, workers: int = 1) -> ValidationReport:
    # below this many trials the z test means nothing
    _check_trials("validate", spec.trials, VALIDATE_MIN_TRIALS)
    rows = list(iter_sweep_rows(spec, workers=workers))
    return validate_points(rows, spec.trials)


# ---------------------------------------------------------------------------
# argument parsing


def _flag_value(text: str):
    """A flag's text as a JSON file would hold it: an int where int() reads
    it, else a float where float() reads it, else the stripped text.  It
    rejects nothing: build_spec (main, for --workers) checks the value."""
    text = text.strip()
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def _flag_list(text: str) -> list:
    return [_flag_value(x) for x in text.split(",") if x.strip()]


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ConfigError, which main prints as one `error:`
    line with exit code 2; reads "-" then a digit or "." as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A private argparse attribute; its stock pattern, ^-\d+$|^-\d*\.\d+$,
        # takes "-10,0" and "-1e3" for unknown flags.  A test pins it.
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        # argparse quotes the tokens it rejects whole: cut each long one
        raise ConfigError(re.sub(r"\S{41,}", lambda m: _cut(m.group()), message))


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # a flag whose dest is a config key overrides that key; pd and pf
    # replace sensing_pairs (see _spec_from_args)
    parser.add_argument("--config", metavar="PATH", help="JSON config file (flags win over file values)")
    parser.add_argument("--gamma-s-db", type=_flag_list, metavar="LIST",
                        help=f"secondary SNR sweep axis in dB (default {_DEFAULTS['gamma_s_db']})")
    parser.add_argument("--scheme", dest="schemes", type=_flag_list, metavar="LIST",
                        help="subset of direct,best,multi (default all)")
    parser.add_argument("--pd", type=_flag_value, metavar="F",
                        help="detection probability of a hole (replaces sensing_pairs)")
    parser.add_argument("--pf", type=_flag_value, metavar="F",
                        help="false-alarm probability of a hole (replaces sensing_pairs)")
    parser.add_argument("--n-relays", dest="relay_counts", type=_flag_list, metavar="LIST",
                        help=f"relay counts to sweep (default {_DEFAULTS['relay_counts']})")
    parser.add_argument("--trials", type=_flag_value, metavar="INT",
                        help="Monte Carlo trials per grid point (0 = analytic only)")
    parser.add_argument("--seed", type=_flag_value, metavar="INT",
                        help=f"base RNG seed (default {_DEFAULTS['seed']})")
    parser.add_argument("--workers", type=_flag_value, default=1, metavar="INT",
                        help=f"Monte Carlo worker processes, 1 to {MAX_WORKERS}; one pool "
                             "serves the whole run, and results are identical for any value")
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    for name, (desc, _, _) in _COMMANDS.items():
        _add_common_flags(sub.add_parser(name, help=desc, description=desc))
    return parser


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    data = _read_config(args.config) if args.config else {}
    data.update({k: v for k, v in vars(args).items() if k in _DEFAULTS and v is not None})
    pd, pf = args.pd, args.pf
    if (pd is None) != (pf is None):
        # one flag: the config's first pair gives the other half where it is
        # a pair; where it is not, build_spec names the fault as written
        pairs = data.get("sensing_pairs")
        pairs = _DEFAULTS["sensing_pairs"] if pairs is None else pairs
        first = pairs[0] if isinstance(pairs, list) and pairs else None
        if isinstance(first, list) and len(first) == 2:
            pd, pf = first[0] if pd is None else pd, first[1] if pf is None else pf
    if pd is not None and pf is not None:
        data["sensing_pairs"] = [[pd, pf]]
    return build_spec(data)


def _print_operating_point(spec: SweepSpec, out) -> None:
    p = spec.base
    print(f"# operating point: gamma_s={spec.gamma_s_db[0]:g} dB, pd={p.pd:g}, pf={p.pf:g}, "
          f"N={p.n_relays}", file=out)
    print(f"# {RATE_CONVENTION_NOTE}", file=out)


def _cmd_analytic(spec: SweepSpec, args, out) -> int:
    _print_operating_point(spec, out)
    for scheme in spec.schemes:
        b = analytic_outage(spec.base, scheme)
        print(
            f"{scheme.value:>6}: total={b.total:.10g}  empty_h0={b.empty_h0:.10g}  "
            f"empty_h1={b.empty_h1:.10g}  nonempty_h0={b.nonempty_h0:.10g}  "
            f"nonempty_h1={b.nonempty_h1:.10g}",
            file=out,
        )
    return 0


def _cmd_simulate(spec: SweepSpec, args, out) -> int:
    _print_operating_point(spec, out)
    estimates = estimate_outage(spec.base, spec.schemes, spec.trials, spec.seed, workers=args.workers)
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


# subcommand -> (description, handler, fewest --trials)
_COMMANDS = {
    "analytic": ("closed-form outage breakdown at the first grid point", _cmd_analytic, 0),
    "simulate": ("Monte Carlo outage estimate at the first grid point", _cmd_simulate, 1),
    "sweep": ("emit the full sweep grid as CSV", _cmd_sweep, 0),
    "validate": ("cross-check closed forms vs simulation; exit 0 on PASS", _cmd_validate,
                 VALIDATE_MIN_TRIALS),
}


class _WriteFailed(Exception):
    """A write, flush or close of the command's output failed."""


class _Output:
    """stdout or the --out file, for a command to write to.  An OSError from
    writing, flushing or closing it is raised as _WriteFailed, so main tells
    it from an OSError raised elsewhere.  main exits 3 on it; a FAIL verdict
    exits 1."""

    def __init__(self, path: str | None):
        self.name = "stdout" if path is None else repr(path)
        try:
            self.stream = sys.stdout if path is None else open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ConfigError(f"out: cannot open {path!r}: {exc.strerror}") from None

    def _call(self, method, *args):
        try:
            return method(*args)
        except BrokenPipeError:  # no message: no reader is left to see one
            raise _WriteFailed() from None
        except OSError as exc:
            raise _WriteFailed(f"cannot write {self.name}: {exc.strerror}") from None

    def write(self, text: str) -> int:
        return self._call(self.stream.write, text)

    def flush(self) -> None:
        self._call(self.stream.flush)

    def close(self) -> None:
        """Flush stdout, or flush and close the --out file (closed even if
        the flush fails)."""
        self._call(self.stream.flush if self.stream is sys.stdout else self.stream.close)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        spec = _spec_from_args(args)
        _integer(args.workers, "workers", 1, MAX_WORKERS, f"must be an integer in [1, {MAX_WORKERS}]")
        _, handler, fewest = _COMMANDS[args.command]
        # checked before --out is opened, which truncates it
        _check_trials(args.command, spec.trials, fewest)
        out = _Output(args.out)
        try:
            return handler(spec, args, out)
        finally:
            out.close()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _WriteFailed as exc:
        if str(exc):
            print(f"error: {exc}", file=sys.stderr)
        if args.out is None:
            # point stdout at devnull so the interpreter's final flush cannot
            # raise again (the SIGPIPE note in Python's signal module docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
