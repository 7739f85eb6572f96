import argparse
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cogrelay
from cogrelay.cli import (
    CSV_HEADER,
    ConfigError,
    build_spec,
    iter_sweep_rows,
    main,
    run_sweep,
    run_validate,
    sweep_points,
    validate_points,
)
from cogrelay.model import ChannelVariances, Scheme, db_to_linear
from oracle import ROUNDED_ABOVE_ONE, sorted_sweep_points

STUDY_CONFIG = {
    "gamma_s_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    "sensing_pairs": [[0.9, 0.1]],
    "relay_counts": [4, 6],
}


def sweep_csv(spec, workers=1):
    buf = io.StringIO()
    run_sweep(spec, buf, workers=workers)
    return buf.getvalue()


class TestBuildSpec:
    def test_empty_config_gets_documented_defaults(self):
        spec = build_spec({})
        assert spec.gamma_s_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert spec.schemes == (Scheme.DIRECT, Scheme.BEST_RELAY, Scheme.MULTI_RELAY)
        assert [(p.pd, p.pf, p.n_relays) for p in spec.lines] == [(0.9, 0.1, 6)]
        assert spec.trials == 0
        assert spec.seed == 12345
        base = spec.base
        assert base.p0 == 0.8
        assert base.gamma_p == pytest.approx(10.0)
        assert base.rate == 1.0
        assert base.variances.sigma2_si == (1.0,) * 6
        assert base.variances.sigma2_pi == (0.2,) * 6
        assert base.variances.sigma2_d == 1.0
        assert base.variances.sigma2_pd == 0.2
        assert base.variances.sigma2_sd == 1.0

    def test_minimal_config_file(self, tmp_path, monkeypatch, capsys):
        from cogrelay import cli

        specs = []
        monkeypatch.setattr(cli, "build_spec", lambda data: specs.append(build_spec(data)) or specs[-1])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gamma_s_db": [3.0, 9.0]}))
        assert main(["analytic", "--config", str(path)]) == 0
        [spec] = specs
        assert spec.gamma_s_db == (3.0, 9.0)
        assert spec.base.p0 == 0.8  # everything else defaulted

    def test_parse_error_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"gamma_s_db": [1,\n  oops]}')
        assert main(["analytic", "--config", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="gamma_sdb"):
            build_spec({"gamma_sdb": [1.0]})

    def test_out_of_range_pf_names_the_field(self):
        with pytest.raises(ConfigError, match="pf"):
            build_spec({"sensing_pairs": [[0.9, 1.3]]})

    def test_oversized_relay_count_cites_the_cap(self):
        with pytest.raises(ConfigError, match="\\[1, 24\\]"):
            build_spec({"relay_counts": [30]})

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"gamma_s_db": []}, "gamma_s_db"),
            ({"schemes": ["coherent"]}, "schemes"),
            ({"schemes": []}, "schemes"),
            ({"sensing_pairs": [[0.9]]}, "sensing_pairs"),
            ({"trials": -1}, "trials"),
            ({"trials": 1.5}, "trials"),
            ({"seed": -2}, "seed"),
            ({"p0": 1.5}, "p0"),
            ({"rate": 0}, "rate"),
            ({"sigma2_d": -1}, "sigma2_d"),
            ({"sigma2_si": [1, 2, -1], "relay_counts": [3]}, "sigma2_si"),
            ({"relay_counts": [0]}, "relay_counts"),
            ({"sensing_pairs": [[0.9, 0.1], [math.nan, 0.1]]}, "pd .*sensing_pairs\\[1\\]"),
            ({"sensing_pairs": [[0, 0]]}, "sensing_pairs\\[0\\]"),
            # an over-long integer shows its first 20 characters and its length
            ({"p0": 10**400}, "p0: integer out of range, got 1(0){19}\\.\\.\\. \\(401 digits\\)$"),
            ({"seed": 10**400}, "seed: must be an integer .* \\(401 digits\\)$"),
            ({"relay_counts": [4, 10**400]}, "relay_counts: each N must be .* \\(401 digits\\)$"),
            # JSON true and false are not numbers
            ({"p0": True}, "p0: expected a number, got True"),
            ({"gamma_s_db": [True, 10]}, "gamma_s_db\\[0\\]: expected a number"),
            ({"sensing_pairs": [[True, False]]}, "sensing_pairs\\[0\\].pd: expected a number"),
            ({"sigma2_d": True}, "sigma2_d: expected a number"),
            ({"sigma2_si": [1, False], "relay_counts": [2]}, "sigma2_si\\[1\\]: expected a number"),
            # nor are strings, even numeric ones
            ({"p0": "0.8"}, "p0: expected a number, got '0.8'"),
            ({"gamma_s_db": ["1e1"]}, "gamma_s_db\\[0\\]: expected a number, got '1e1'"),
            ({"sigma2_d": " 2 "}, "sigma2_d: expected a number, got ' 2 '"),
            ({"p0": "0.8", "gamma_s_db": ["1e1"], "sigma2_d": " 2 "}, "gamma_s_db\\[0\\]: expected a number"),
            # past Python's 4,300-digit str() limit, the value is cut before conversion
            ({"seed": 10**5000}, "seed: must be an integer in \\[0, 2\\^64\\), got 1(0){19}\\.\\.\\. \\(5001 digits\\)$"),
            ({"seed": -(10**5000)}, "seed: must be an integer .*, got -1(0){18}\\.\\.\\. \\(5001 digits\\)$"),
        ],
    )
    def test_invalid_values_name_their_field(self, overrides, field):
        with pytest.raises(ConfigError, match=field) as info:
            build_spec(overrides)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"gamma_s_db": [10, -3100]}, "at -3100 dB and rate 1 "),
            ({"gamma_s_db": [10, -3079, 0]}, "at -3079 dB and rate 1 "),
            ({"rate": 1000}, "at 0 dB and rate 1000 "),
            ({"rate": 600, "gamma_s_db": [10, 5]}, "at 5 dB and rate 600 "),
        ],
    )
    def test_infinite_threshold_names_the_axis_in_db(self, overrides, message):
        # one model call at the smallest gamma_s checks the whole axis
        with pytest.raises(ConfigError) as info:
            build_spec(overrides)
        assert str(info.value) == f"gamma_s_db: {message}the decode threshold is not finite"

    def test_per_relay_lists_need_single_relay_count(self):
        with pytest.raises(ConfigError, match="sigma2_si"):
            build_spec({"sigma2_si": [1.0, 2.0, 1.0], "relay_counts": [3, 6]})
        spec = build_spec({"sigma2_si": [1.0, 2.0, 1.0], "relay_counts": [3]})
        assert spec.base.variances.sigma2_si == (1.0, 2.0, 1.0)

    def test_rows_reuse_one_line_per_pair_and_relay_count(self, monkeypatch):
        # build_spec makes one ChannelVariances per N and one SystemParams
        # per (pair, N) line; a row's params are its line at its gamma_s
        from cogrelay import cli

        built = []
        check = ChannelVariances.__post_init__
        monkeypatch.setattr(ChannelVariances, "__post_init__", lambda v: built.append(v) or check(v))
        seen = []
        real = cli.analytic_outage
        monkeypatch.setattr(cli, "analytic_outage", lambda p, s: seen.append(p) or real(p, s))
        spec = build_spec({**STUDY_CONFIG, "sensing_pairs": [[0.9, 0.1], [0.8, 0.2]]})
        assert len(built) == len(STUDY_CONFIG["relay_counts"]) == 2
        lines = {(p.pd, p.pf, p.n_relays): p for p in spec.lines}
        assert len(lines) == len(spec.lines) == 2 * 2
        assert spec.base is spec.lines[0]
        rows = list(iter_sweep_rows(spec))
        assert len(built) == 2
        assert len(seen) == len(rows) == 3 * 2 * 2 * 7
        for row, params in zip(rows, seen):
            line = lines[row.pd, row.pf, row.n_relays]
            assert params == dataclasses.replace(line, gamma_s=db_to_linear(row.gamma_s_db))
            assert params.variances is line.variances

    def test_duplicate_schemes_collapse(self):
        spec = build_spec({"schemes": ["multi", "multi", "best"]})
        assert spec.schemes == (Scheme.MULTI_RELAY, Scheme.BEST_RELAY)

    def test_every_axis_keeps_each_value_once_at_its_first_occurrence(self):
        spec = build_spec({"gamma_s_db": [10, -0.0, 10.0, 0, 5], "relay_counts": [6, 4, 6],
                           "sensing_pairs": [[0.8, 0.2], [0.9, -0.0], [0.8, 0.2], [0.9, 0]]})
        assert spec.gamma_s_db == (10.0, 0.0, 5.0)
        assert [(p.pd, p.pf, p.n_relays) for p in spec.lines] == [
            (0.8, 0.2, 6), (0.8, 0.2, 4), (0.9, 0.0, 6), (0.9, 0.0, 4)]
        assert spec.base == build_spec({"gamma_s_db": [10], "relay_counts": [6],
                                        "sensing_pairs": [[0.8, 0.2]]}).base

    def test_a_repeated_pair_errs_at_its_first_index(self):
        with pytest.raises(ConfigError, match="\\(sensing_pairs\\[1\\]\\)$"):
            build_spec({"sensing_pairs": [[0.9, 0.1], [0, 0], [0.9, 0.1], [0, 0]]})


class TestSweep:
    def test_single_analytic_point(self):
        spec = build_spec({"gamma_s_db": [10.0], "schemes": ["multi"]})
        lines = sweep_csv(spec).splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "multi"
        assert fields[6] == "" and fields[7] == ""  # no MC columns at trials=0

    def test_study_grid_row_count(self):
        spec = build_spec(STUDY_CONFIG)
        lines = sweep_csv(spec).splitlines()
        assert len(lines) == 1 + 3 * 2 * 7  # header + schemes x N x gamma points

    def test_rows_are_lexicographically_ordered(self):
        spec = build_spec(
            {
                "gamma_s_db": [15.0, 0.0],
                "sensing_pairs": [[0.95, 0.05], [0.65, 0.35]],
                "relay_counts": [6, 4],
            }
        )
        points = sweep_points(spec)
        keys = [(s.value, pd, pf, n, g) for (s, pd, pf, n, g) in points]
        assert keys == sorted(keys)

    @settings(max_examples=300, deadline=None)
    @given(
        gamma_s_db=st.lists(st.sampled_from([-0.0, 0.0, -5.0, 2.5, 10.0]), min_size=1, max_size=5),
        pairs=st.lists(
            st.tuples(st.sampled_from([-0.0, 0.0, 0.5, 0.9]), st.sampled_from([-0.0, 0.0, 0.1]))
            .filter(lambda pair: pair[0] > 0.0 or pair[1] > 0.0),
            min_size=1, max_size=4,
        ),
        relay_counts=st.lists(st.sampled_from([1, 4, 6, 24]), min_size=1, max_size=4),
        schemes=st.lists(st.sampled_from(["multi", "best", "direct"]), min_size=1, max_size=4),
    )
    def test_streamed_points_match_the_sorted_grid(self, gamma_s_db, pairs, relay_counts, schemes):
        # unsorted axes with repeats and signed zeros: the streamed points are
        # the sorted grid's, element by element and down to their repr
        spec = build_spec({"gamma_s_db": gamma_s_db, "sensing_pairs": pairs,
                           "relay_counts": relay_counts, "schemes": schemes})
        streamed = list(sweep_points(spec))
        expected = sorted_sweep_points(spec)
        assert streamed == expected
        assert [repr(p) for p in streamed] == [repr(p) for p in expected]

    def test_signed_zeros_print_as_zero(self, capsys):
        rc = main(["sweep", "--gamma-s-db=-0,0", "--pd=-0", "--pf", "0.1",
                   "--n-relays", "4,6", "--scheme", "multi"])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[1], r[2], r[4]) for r in rows] == [("4", "0", "0"), ("6", "0", "0")]

    def test_repeated_axis_values_give_one_row_each(self, capsys):
        assert main(["sweep", "--gamma-s-db=-0,0,0", "--n-relays", "4,4"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[0], r[1], r[4]) for r in rows] == [
            ("best", "4", "0"), ("direct", "4", "0"), ("multi", "4", "0")]

    def test_rerun_is_byte_identical(self):
        cfg = {"gamma_s_db": [5.0, 15.0], "schemes": ["best"], "trials": 20_000, "seed": 3}
        assert sweep_csv(build_spec(cfg)) == sweep_csv(build_spec(cfg))

    def test_worker_count_does_not_change_bytes(self):
        cfg = {"gamma_s_db": [10.0], "schemes": ["multi", "direct"], "trials": 40_000}
        outputs = {sweep_csv(build_spec(cfg), workers=w) for w in (1, 4)}
        assert len(outputs) == 1

    def test_one_estimate_call_per_sweep(self, monkeypatch):
        # one call, made before the first row, carries every grid point once
        # and every scheme; the repeated 10 dB value is one point and one row
        from cogrelay import cli

        calls = []
        real = cli.estimate_outage

        def counting(params, scheme, trials, seed, workers=1):
            calls.append((params, scheme))
            return real(params, scheme, trials, seed, workers=workers)

        monkeypatch.setattr(cli, "estimate_outage", counting)
        spec = build_spec({"gamma_s_db": [10.0, 5.0, 10.0], "relay_counts": [4, 6],
                           "sensing_pairs": [[0.9, 0.1], [0.8, 0.2]],
                           "trials": 20_000, "seed": 2})
        rows = iter_sweep_rows(spec)
        first = next(rows)
        assert len(calls) == 1
        rows = [first, *rows]
        assert len(calls) == 1
        assert len(rows) == len({(r.scheme, r.pd, r.pf, r.n_relays, r.gamma_s_db) for r in rows})
        assert len(rows) == 3 * 2 * 2 * 2
        [(params, scheme)] = calls
        assert scheme == spec.schemes
        grid = {(r.pd, r.pf, r.n_relays, db_to_linear(r.gamma_s_db)) for r in rows}
        assert len(params) == len(grid) == 2 * 2 * 2
        assert {(p.pd, p.pf, p.n_relays, p.gamma_s) for p in params} == grid

    def test_analytic_sweep_makes_no_estimate_call(self, monkeypatch):
        # trials = 0: no call, and no grid point's SystemParams built ahead
        # of its row
        from cogrelay import cli

        built, calls = [], []
        real = cli._params_at

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "_params_at", counting)
        monkeypatch.setattr(cli, "estimate_outage", lambda *args, **kwargs: calls.append(args))
        spec = build_spec({**STUDY_CONFIG, "trials": 0})
        rows = iter_sweep_rows(spec)
        next(rows)
        assert len(built) == 1
        assert 1 + len(list(rows)) == len(built) == 3 * 2 * 7
        assert not calls

    def test_scheme_subset_rows_equal_full_sweep_rows(self):
        # an estimate never depends on which other schemes were requested
        cfg = {"gamma_s_db": [0.0, 10.0], "relay_counts": [2, 6], "trials": 40_000, "seed": 8}
        full = sweep_csv(build_spec(cfg)).splitlines()
        best = sweep_csv(build_spec({**cfg, "schemes": ["best"]})).splitlines()
        assert best[1:] == [line for line in full[1:] if line.startswith("best,")]
        assert len(best) == 1 + 2 * 2

    def test_snr_subset_rows_equal_full_sweep_rows(self):
        # an estimate never depends on which other SNR points share its line
        cfg = {"gamma_s_db": [0.0, 10.0, 20.0], "relay_counts": [2, 6], "trials": 40_000, "seed": 8}
        full = sweep_csv(build_spec(cfg)).splitlines()
        one = sweep_csv(build_spec({**cfg, "gamma_s_db": [10.0]})).splitlines()
        assert one[1:] == [line for line in full[1:] if line.split(",")[4] == "10"]
        assert len(one) == 1 + 3 * 2

    def test_golden_row_format(self):
        # frozen: 10 significant digits, ints unpadded, trailing seed column
        spec = build_spec({"gamma_s_db": [10.0], "schemes": ["multi"], "trials": 20_000, "seed": 7})
        got = sweep_csv(spec)
        assert got == (
            "scheme,n_relays,pd,pf,gamma_s_db,analytic_outage,mc_outage,mc_stderr,trials,seed\n"
            "multi,6,0.9,0.1,10,0.008507861078,0.00925,0.0006769208779,20000,7\n"
        )

    def test_interrupted_sweep_leaves_valid_prefix(self):
        # streaming contract: rows already emitted survive a mid-sweep crash
        class Boom(Exception):
            pass

        class FlakyWriter(io.StringIO):
            def __init__(self, fail_after):
                super().__init__()
                self.rows_left = fail_after

            def write(self, text):
                if text != CSV_HEADER + "\n" and text.strip():
                    if self.rows_left == 0:
                        raise Boom()
                    self.rows_left -= 1
                return super().write(text)

        spec = build_spec({"gamma_s_db": [0.0, 10.0, 20.0], "schemes": ["multi"]})
        full = sweep_csv(spec).splitlines()
        sink = FlakyWriter(fail_after=2)
        with pytest.raises(Boom):
            run_sweep(spec, sink)
        lines = sink.getvalue().splitlines()
        assert lines == full[:3]  # header + the two completed rows

    def test_direct_rows_repeated_per_relay_count(self):
        spec = build_spec({"gamma_s_db": [10.0], "schemes": ["direct"], "relay_counts": [4, 6]})
        lines = sweep_csv(spec).splitlines()[1:]
        assert len(lines) == 2
        # same analytic value, distinct n_relays columns
        assert lines[0].split(",")[5] == lines[1].split(",")[5]
        assert {l.split(",")[1] for l in lines} == {"4", "6"}


class TestValidate:
    def test_minimum_trials_precondition(self):
        spec = build_spec({"gamma_s_db": [10.0], "trials": 1000})
        with pytest.raises(ConfigError, match="10000"):
            run_validate(spec)

    def test_small_grid_passes(self):
        spec = build_spec(
            {"gamma_s_db": [5.0, 10.0], "schemes": ["multi", "direct"], "trials": 20_000}
        )
        report = run_validate(spec)
        assert report.passed
        assert report.n_points == 4
        assert report.max_z <= 3.0
        assert "PASS" in report.render()

    def test_corrupted_analytic_fails_and_lists_offenders(self):
        spec = build_spec({"gamma_s_db": [5.0, 15.0], "schemes": ["multi"], "trials": 20_000})
        rows = list(iter_sweep_rows(spec))
        clean = validate_points(rows, spec.trials)
        assert clean.passed
        for idx in range(len(rows)):
            corrupted = list(rows)
            corrupted[idx] = dataclasses.replace(
                rows[idx], analytic_outage=rows[idx].analytic_outage + 0.05
            )
            report = validate_points(corrupted, spec.trials)
            assert not report.passed
            assert len(report.exceedances) == 1
            assert "FAIL" in report.render()

    @pytest.mark.parametrize("n_points, allowed", [(42, 0), (100, 0), (101, 1), (150, 1)])
    def test_pass_allows_exceedances_below_one_percent(self, n_points, allowed):
        # PASS iff fewer than 1% of the points exceed z = 3: exactly
        # `allowed` exceedances pass and one more fails, and the false-fail
        # probability is the chance of more than `allowed` among the
        # informative points (all of them here)
        from cogrelay.cli import SweepRow
        from cogrelay.montecarlo import OutageEstimate

        trials = 10**6

        def row(i, exceeds):
            # z = 0, or z = 0.5 / sqrt(0.25 / trials) = 1000
            count = 0 if exceeds else 2
            return SweepRow(scheme=Scheme.MULTI_RELAY, n_relays=6, pd=0.9, pf=0.1, gamma_s_db=float(i),
                            analytic_outage=0.5 if exceeds else count / trials,
                            estimate=OutageEstimate.from_count(count, trials, 1))

        q = math.erfc(3.0 / math.sqrt(2.0))
        passing = sum(
            math.comb(n_points, j) * q**j * (1.0 - q) ** (n_points - j) for j in range(allowed + 1)
        )
        for exceeding, passed in ((allowed, True), (allowed + 1, False)):
            report = validate_points([row(i, i < exceeding) for i in range(n_points)], trials)
            assert len(report.exceedances) == exceeding
            assert report.passed is passed
            assert report.informative == n_points
            assert report.false_fail_probability == pytest.approx(1.0 - passing, rel=1e-12)
            assert ("verdict:          PASS" in report.render()) is passed

    @pytest.mark.parametrize("n_points, informative", [(42, 32), (150, 150), (42, 0)])
    def test_report_counts_informative_points_and_false_fail_odds(self, n_points, informative):
        # expected outage counts of 2 (informative) and 0.5 (not) at 1e6 trials;
        # every estimate equals its analytic value, so nothing exceeds z = 3
        from cogrelay.cli import SweepRow
        from cogrelay.montecarlo import OutageEstimate

        trials = 10**6
        rows = [
            SweepRow(scheme=Scheme.MULTI_RELAY, n_relays=6, pd=0.9, pf=0.1, gamma_s_db=float(i),
                     analytic_outage=count / trials,
                     estimate=OutageEstimate.from_count(int(count), trials, 1))
            for i, count in enumerate([2.0] * informative + [0.5] * (n_points - informative))
        ]
        report = validate_points(rows, trials)
        q = math.erfc(3.0 / math.sqrt(2.0))
        # the PASS rule allows no exceedance up to 100 points and one up to 200
        allowed = 0 if n_points < 100 else 1
        passing = sum(
            math.comb(informative, j) * q**j * (1.0 - q) ** (informative - j)
            for j in range(min(allowed, informative) + 1)
        )
        assert report.passed
        assert report.informative == informative
        assert report.false_fail_probability == pytest.approx(1.0 - passing, rel=1e-12, abs=1e-15)
        text = report.render()
        assert f"informative:      {informative} " in text
        assert f"false-fail prob:  {report.false_fail_probability:.3g} " in text
        if n_points == 42 and informative == 32:
            assert report.false_fail_probability == pytest.approx(0.0829, abs=1e-4)

    def test_repeated_axis_values_count_once(self, capsys):
        argv = ["validate", "--trials", "10000", "--gamma-s-db", "10,10,10", "--n-relays", "2,2",
                "--scheme", "direct,multi"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "points checked:   2\n" in out
        assert "false-fail prob:  0.00539 " in out

    def test_total_rounded_above_one_validates(self, tmp_path, capsys):
        # the multi and best totals of this accepted config sum their parts
        # to 1.000000000000002; the clamped total keeps the z score defined
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ROUNDED_ABOVE_ONE))
        assert main(["validate", "--config", str(path), "--trials", "10000", "--scheme", "multi,best"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "points checked:   2\n" in captured.out and "verdict:          PASS" in captured.out


class TestMainEntry:
    def test_sweep_to_stdout(self, capsys):
        rc = main(["sweep", "--gamma-s-db", "10", "--scheme", "multi"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith(CSV_HEADER)

    def test_sweep_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        rc = main([
            "sweep", "--gamma-s-db", "0,10", "--scheme", "direct",
            "--trials", "10000", "--seed", "4", "--out", str(out_path),
        ])
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_analytic_prints_breakdown(self, capsys):
        rc = main(["analytic", "--gamma-s-db", "20", "--scheme", "multi,best"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "multi:" in out and "best:" in out
        assert "nonempty_h1=" in out
        assert "rate convention" in out

    def test_simulate_requires_trials(self, capsys):
        rc = main(["simulate", "--gamma-s-db", "10"])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, trials", [("simulate", []), ("validate", ["--trials", "10"])], ids=["simulate", "validate"]
    )
    def test_trials_error_leaves_out_file_untouched(self, command, trials, tmp_path, capsys):
        out_path = tmp_path / "keep.txt"
        out_path.write_text("previous\n")
        rc = main([command, "--gamma-s-db", "10", *trials, "--out", str(out_path)])
        assert rc == 2
        assert "trials" in capsys.readouterr().err
        assert out_path.read_text() == "previous\n"

    def test_simulate_prints_estimate(self, capsys):
        rc = main([
            "simulate", "--gamma-s-db", "10", "--scheme", "direct",
            "--trials", "20000", "--seed", "9",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "p_hat=" in out and "stderr=" in out

    def test_simulate_all_schemes_prints_single_scheme_lines(self, capsys):
        args = ["simulate", "--gamma-s-db", "10", "--trials", "40000", "--seed", "6"]
        assert main(args + ["--scheme", "direct,best,multi"]) == 0
        together = capsys.readouterr().out.splitlines()
        alone = []
        for scheme in ("direct", "best", "multi"):
            assert main(args + ["--scheme", scheme]) == 0
            alone.append(capsys.readouterr().out.splitlines())
        # two header lines, then one estimate line per scheme
        assert all(len(lines) == 3 and lines[:2] == together[:2] for lines in alone)
        assert together == together[:2] + [lines[2] for lines in alone]

    def test_validate_exit_code_on_pass(self, capsys):
        rc = main([
            "validate", "--gamma-s-db", "10", "--scheme", "multi",
            "--trials", "20000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict:          PASS" in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_s_db": [0.0], "schemes": ["direct"], "trials": 0}))
        rc = main(["sweep", "--config", str(cfg), "--gamma-s-db", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[4] == "25"  # flag beat the file

    def test_config_error_exit_code(self, capsys):
        rc = main(["sweep", "--gamma-s-db", "10", "--pd", "1.7"])
        assert rc == 2
        assert "pd" in capsys.readouterr().err

    def test_overflowing_tail_power_at_high_snr(self, capsys):
        # (1 + sigma2_d*c/delta)^24 passes the float range at 140 dB
        rc = main(["sweep", "--gamma-s-db", "0,140", "--n-relays", "24", "--scheme", "multi"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        rows = captured.out.splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            value = float(row.split(",")[5])
            assert math.isfinite(value) and 0.0 <= value <= 1.0

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"sigma2_si": 1e-300, "gamma_p_db": 100}, ["--gamma-s-db", "-10"]),
            ({"gamma_p_db": 3080}, ["--gamma-s-db", "-10"]),
            ({"sigma2_d": 1e-308}, ["--gamma-s-db", "-10"]),
            ({"sigma2_sd": 1e-320}, []),
            ({"sigma2_pd": 1e-320, "gamma_p_db": -40}, []),
            ({"sigma2_pd": 1e10, "gamma_p_db": 3080}, []),
            ({"rate": 1e-17, "sigma2_pd": 1e10, "gamma_p_db": 3080}, []),
        ],
        ids=["sigma2_si-1e-300", "gamma_p-3080-dB", "sigma2_d-1e-308", "sigma2_sd-1e-320",
             "interference-underflow", "interference-overflow", "zero-threshold"],
    )
    def test_analytic_at_the_edge_of_the_accepted_range(self, config, flags, tmp_path, capsys):
        # each config drives an interference ratio r, the second-hop
        # argument delta/sigma2_d or sigma2_pd*gamma_p out of the float
        # range (or the threshold to 0), where the closed forms take their
        # limits instead of returning NaN or raising
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["analytic", "--config", str(cfg), *flags])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        lines = [line for line in captured.out.splitlines() if not line.startswith("#")]
        assert len(lines) == 3
        for line in lines:
            values = [float(field.split("=")[1]) for field in line.split()[1:]]
            assert len(values) == 5
            assert all(0.0 <= v <= 1.0 for v in values), line

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "config",
        [
            {"sigma2_pd": 1e308, "gamma_p_db": 3000},
            {"sigma2_pd": 1e308, "gamma_p_db": 3000, "p0": 0},
            {"sigma2_pd": 1e308, "gamma_p_db": 3000, "rate": 1e-20},
        ],
        ids=["interference-overflow", "primary-always-active", "zero-threshold"],
    )
    def test_sweep_at_the_edge_of_the_accepted_range(self, config, tmp_path, capsys):
        # the kernel's primary gains and interference factors overflow to
        # inf, and a zero threshold times an infinite factor is NaN; those
        # limits are the intended ones, so no numpy warning is raised, and
        # the estimates agree with the closed forms, exactly at 0 and 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["sweep", "--trials", "20000", "--n-relays", "3", "--gamma-s-db", "10",
                   "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == "", captured.err
        rows = [row.split(",") for row in captured.out.splitlines()[1:]]
        assert len(rows) == 3
        for row in rows:
            analytic, mc, trials = float(row[5]), float(row[6]), int(row[8])
            if analytic in (0.0, 1.0):
                assert mc == analytic, row
            else:
                assert abs(mc - analytic) <= 4.0 * math.sqrt(analytic * (1.0 - analytic) / trials), row

    def test_pd_pf_flags_replace_pairs(self, capsys):
        rc = main([
            "sweep", "--gamma-s-db", "10", "--scheme", "multi",
            "--pd", "0.95", "--pf", "0.05",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        fields = out.splitlines()[1].split(",")
        assert fields[2] == "0.95" and fields[3] == "0.05"


@pytest.mark.parametrize(
    "flags,config",
    [
        pytest.param(["--gamma-s-db", "0,1e308"], None, id="later-point-overflows"),
        pytest.param(["--gamma-s-db", "0,-1e308"], None, id="later-point-underflows"),
        pytest.param(["--gamma-s-db", "1e308"], None, id="first-point-overflows"),
        pytest.param(["--gamma-s-db", "0,-3079"], None, id="infinite-threshold"),
        pytest.param(["--gamma-s-db", "10,-3100"], None, id="subnormal-gamma-s"),
        pytest.param([], "missing", id="missing-config"),
        pytest.param([], b"[" * 100_000 + b"]" * 100_000, id="config-nested-too-deep"),
        pytest.param([], b'{"seed": 1' + b"0" * 5000 + b"}", id="config-integer-too-long"),
        pytest.param([], {"p0": True}, id="bool-as-number"),
        pytest.param([], {"sensing_pairs": [[True, False]]}, id="bool-pair"),
        pytest.param([], b"\xff\xfe{}", id="config-not-utf8"),
        pytest.param([], {"sensing_pairs": [[0.9, 0.1], [0, 0]]}, id="later-pair-never-fires"),
        pytest.param([], {"gamma_p_db": 1e308}, id="gamma-p-overflows"),
        pytest.param([], {"rate": 1000}, id="rate-overflows-threshold"),
        pytest.param([], {"rate": 0}, id="rate-zero"),
        pytest.param([], {"p0": 1.5}, id="p0-above-one"),
        pytest.param([], {"p0": 10**400}, id="p0-beyond-float"),
        pytest.param(["--seed", "1" + "0" * 400], None, id="seed-too-long"),
        pytest.param(["--n-relays", "1" + "0" * 400], None, id="relay-count-too-long"),
        pytest.param([], {"sensing_pairs": [[0.9, 0.1], [math.nan, 0.1]]}, id="later-pair-nan"),
        pytest.param([], {"sigma2_si": [1, 2, -1], "relay_counts": [3]}, id="per-relay-negative"),
        pytest.param([], {"relay_counts": [0]}, id="zero-relays"),
        pytest.param([], {"gamma_s_db": ["x"]}, id="non-numeric-axis"),
        pytest.param(["--pd", "0.9"], {"sensing_pairs": 5}, id="pd-flag-over-malformed-pairs"),
        pytest.param(["--workers", "100000"], None, id="workers-over-cap"),
        pytest.param(["--out", "{tmp}/missing/x.csv"], None, id="out-missing-dir"),
        pytest.param(["--out", "{tmp}"], None, id="out-is-directory"),
        pytest.param(["--pd", "abc"], None, id="pd-not-a-number"),
        pytest.param(["--trials", "1e6"], None, id="trials-not-an-integer"),
        pytest.param(["--n-relays", "2.5"], None, id="relay-count-not-an-integer"),
        pytest.param(["--gamma-s-db", "x"], None, id="gamma-s-not-a-number"),
        pytest.param(["--workers", "x"], None, id="workers-not-an-integer"),
        pytest.param(["--bogus"], None, id="unknown-flag"),
        pytest.param(["--" + "x" * 300], None, id="unknown-flag-too-long"),
        pytest.param(["--pd"], None, id="missing-value"),
    ],
)
def test_bad_input_exits_2_before_any_output(tmp_path, flags, config):
    """A malformed input anywhere in the grid is rejected up front: exit code
    2, one `error:` line on stderr, no traceback, and not even the CSV header."""
    flags = [f.replace("{tmp}", str(tmp_path)) for f in flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        if isinstance(config, bytes):
            path.write_bytes(config)
        elif isinstance(config, dict):
            path.write_text(json.dumps(config))
        flags = ["--config", str(path), *flags]
    env = {**os.environ, "PYTHONPATH": str(Path(cogrelay.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "cogrelay.cli", "sweep", *flags],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert len(lines[0].replace(str(tmp_path), "")) < 200, lines[0]
    assert proc.stdout == ""


def test_missing_subcommand_is_one_error_line(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the following arguments are required: command\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--pd", "abc"], {"sensing_pairs": [["abc", 0.1]]}),
        (["--pd", "1.5"], {"sensing_pairs": [[1.5, 0.1]]}),
        (["--trials", "1.5"], {"trials": 1.5}),
        (["--trials", "-3"], {"trials": -3}),
        (["--n-relays", "4,0"], {"relay_counts": [4, 0]}),
        (["--n-relays", "4,x"], {"relay_counts": [4, "x"]}),
        (["--gamma-s-db", "10,x"], {"gamma_s_db": [10, "x"]}),
        (["--gamma-s-db", "10,-3100"], {"gamma_s_db": [10, -3100]}),
        (["--seed", "-1"], {"seed": -1}),
        (["--seed", "2.0"], {"seed": 2.0}),
    ],
    ids=["pd-text", "pd-range", "trials-float", "trials-negative", "relay-count-zero",
         "relay-count-text", "gamma-s-text", "gamma-s-threshold", "seed-negative", "seed-float"],
)
def test_flag_and_config_values_get_the_same_error(flags, config, tmp_path, capsys):
    # a flag's text is read as the value a JSON file would hold, then
    # checked by the same code
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", *flags]) == 2
    from_flag = capsys.readouterr()
    assert main(["sweep", "--config", str(path)]) == 2
    from_file = capsys.readouterr()
    assert from_flag.err == from_file.err
    assert from_flag.err.startswith("error: ") and from_flag.err.count("\n") == 1
    assert from_flag.out == from_file.out == ""


@pytest.mark.parametrize(
    "spaced", [["-10,0"], ["-1e3"], ["-.5,-1"], ["-1.5"], ["-10"]],
    ids=["negative-list", "negative-exponent", "negative-fraction", "negative-float", "negative-int"],
)
def test_spaced_negative_values_read_as_their_equals_form(spaced, capsys):
    # The parser replaces argparse's private _negative_number_matcher, whose
    # stock pattern reads "-10,0" and "-1e3" as unknown flags; this fails if
    # argparse renames it
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
    assert main(["sweep", "--scheme", "multi", "--gamma-s-db", *spaced]) == 0
    spaced_csv = capsys.readouterr().out
    assert main(["sweep", "--scheme", "multi", f"--gamma-s-db={spaced[0]}"]) == 0
    assert spaced_csv == capsys.readouterr().out
    assert len(spaced_csv.splitlines()) == 1 + len(spaced[0].split(","))


HELP_OPTIONS = """\
options:
  -h, --help         show this help message and exit
  --config PATH      JSON config file (flags win over file values)
  --gamma-s-db LIST  secondary SNR sweep axis in dB (default [0.0, 5.0, 10.0,
                     15.0, 20.0, 25.0, 30.0])
  --scheme LIST      subset of direct,best,multi (default all)
  --pd F             detection probability of a hole (replaces sensing_pairs)
  --pf F             false-alarm probability of a hole (replaces
                     sensing_pairs)
  --n-relays LIST    relay counts to sweep (default [6])
  --trials INT       Monte Carlo trials per grid point (0 = analytic only)
  --seed INT         base RNG seed (default 12345)
  --workers INT      Monte Carlo worker processes, 1 to 64; one pool serves
                     the whole run, and results are identical for any value
  --out PATH         write output to PATH instead of stdout
"""

# the usage wraps by the length of the command's name
HELP_USAGE_8 = """\
usage: cogrelay {name} [-h] [--config PATH] [--gamma-s-db LIST]
                         [--scheme LIST] [--pd F] [--pf F] [--n-relays LIST]
                         [--trials INT] [--seed INT] [--workers INT]
                         [--out PATH]
"""
HELP_USAGE_SWEEP = """\
usage: cogrelay sweep [-h] [--config PATH] [--gamma-s-db LIST] [--scheme LIST]
                      [--pd F] [--pf F] [--n-relays LIST] [--trials INT]
                      [--seed INT] [--workers INT] [--out PATH]
"""


@pytest.mark.parametrize(
    "command, description",
    [
        ("analytic", "closed-form outage breakdown at the first grid point"),
        ("simulate", "Monte Carlo outage estimate at the first grid point"),
        ("sweep", "emit the full sweep grid as CSV"),
        ("validate", "cross-check closed forms vs simulation; exit 0 on PASS"),
    ],
)
def test_help_text_is_pinned(command, description, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    usage = HELP_USAGE_SWEEP if command == "sweep" else HELP_USAGE_8.format(name=command)
    captured = capsys.readouterr()
    assert captured.out == f"{usage}\n{description}\n\n{HELP_OPTIONS}"
    assert captured.err == ""


def test_closed_stdout_pipe_exits_1_without_traceback():
    """A reader that stops after the first line, like `| head -1`, ends the
    sweep with exit code 1 and nothing on stderr."""
    # 2,232 rows, far more than a pipe buffer holds, so writes outlast the reader
    flags = ["--n-relays", ",".join(map(str, range(1, 25))),
             "--gamma-s-db", ",".join(map(str, range(31)))]
    env = {**os.environ, "PYTHONPATH": str(Path(cogrelay.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cogrelay.cli", "sweep", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().decode() == CSV_HEADER + "\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("argv", [["sweep", "--n-relays", "2", "--gamma-s-db", "0"], ["analytic"]],
                         ids=["sweep", "analytic"])
def test_failed_write_is_one_error_line(argv, to_out):
    """A write that fails (a full disk) ends the command with exit code 1
    and one `error:` line naming the output, on stdout and on --out alike."""
    env = {**os.environ, "PYTHONPATH": str(Path(cogrelay.__file__).parents[1])}
    command = [sys.executable, "-m", "cogrelay.cli", *argv]
    if to_out:
        proc = subprocess.run([*command, "--out", "/dev/full"], capture_output=True, text=True,
                              env=env, timeout=60)
        target = "'/dev/full'"
    else:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        target = "stdout"
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"


def test_other_os_errors_are_not_write_errors(monkeypatch, capsys):
    # an OSError outside the output stream, such as a pool that cannot
    # start, is not reported as a failed write
    def fail(*args, **kwargs):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    from cogrelay import cli

    monkeypatch.setattr(cli, "estimate_outage", fail)
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        main(["simulate", "--trials", "1000", "--gamma-s-db", "10"])
    assert "cannot write" not in capsys.readouterr().err


# Modules that only the Monte Carlo path needs.
MONTE_CARLO_MODULES = ("numpy", "numpy.random", "cogrelay.montecarlo", "concurrent.futures.process")


def _modules_loaded_after(code: str) -> list[str]:
    """Run `code` in a fresh interpreter; the Monte Carlo modules it loaded."""
    probe = f"import json, sys\n{code}\nprint(json.dumps([m for m in {MONTE_CARLO_MODULES!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(Path(cogrelay.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, loads_monte_carlo",
    [
        (["analytic", "--n-relays", "6", "--gamma-s-db", "20"], False),
        (["sweep", "--trials", "0", "--n-relays", "4,6"], False),
        (["simulate", "--trials", "1000", "--gamma-s-db", "10"], True),
    ],
    ids=["analytic", "sweep-trials-0", "simulate"],
)
def test_only_a_simulating_run_imports_numpy(argv, loads_monte_carlo):
    code = f"from cogrelay import cli\nassert cli.main({argv!r} + ['--out', {os.devnull!r}]) == 0"
    expected = list(MONTE_CARLO_MODULES) if loads_monte_carlo else []
    assert _modules_loaded_after(code) == expected


def test_monte_carlo_module_loads_numpy_random():
    # pool workers fork from a process that already holds numpy.random, so
    # no worker imports it again
    assert "numpy.random" in _modules_loaded_after("import cogrelay.montecarlo")


def test_package_resolves_monte_carlo_names_on_first_use():
    assert _modules_loaded_after("import cogrelay") == []
    code = (
        "import cogrelay\n"
        "assert {'estimate_outage', 'OutageEstimate'} <= set(dir(cogrelay))\n"
        "assert cogrelay.estimate_outage is cogrelay.montecarlo.estimate_outage\n"
        "assert cogrelay.OutageEstimate is cogrelay.montecarlo.OutageEstimate"
    )
    assert _modules_loaded_after(code) == list(MONTE_CARLO_MODULES)
