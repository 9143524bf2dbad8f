"""Command line behavior: exit codes, CSV shape, determinism, demos."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasekey import cli, fock
from phasekey.checks import FAST_CHECKS, FULL_ONLY_CHECKS, CheckResult, run_checks
from phasekey.evaluation import NonlinearPhaseSpec, haar_random_unitary
from phasekey.fock import CapacityError, truncation_bound
from phasekey.protocol import CircuitDescription, circuit_to_json, wire_float
from phasekey.security import (
    SERIES_TAIL_EPS,
    SecurityParams,
    encrypted_trace_distance,
    pgm_closed_form,
    suppression_ratio,
)


def run_cli(args):
    return cli.main(list(args))


class TestArgumentParsing:
    def test_int_list_single(self):
        assert cli.parse_int_list("7") == [7]

    def test_int_list_commas_and_range(self):
        assert cli.parse_int_list("1,4,2-5") == [1, 2, 3, 4, 5]

    def test_int_list_dedupes_and_sorts(self):
        assert cli.parse_int_list("9,1,9") == [1, 9]

    def test_int_list_rejects_garbage(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_int_list("1,x")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_int_list("5-2")

    def test_int_list_cap_counts_distinct_values(self, monkeypatch):
        import argparse
        monkeypatch.setattr(cli, "ALPHA_GRID_CAP", 5)
        assert cli.parse_int_list("1-5,1-5") == [1, 2, 3, 4, 5]
        assert cli.parse_int_list("1-3,3,4-5") == [1, 2, 3, 4, 5]
        for text in ("1-6", "0-5", "1-3,4-6", "1,2,3,4,5,6", "1-5,7"):
            with pytest.raises(argparse.ArgumentTypeError, match=f"more than 5 values in '{text}'"):
                cli.parse_int_list(text)

    def test_energy_rule_fixed_is_constant(self):
        assert cli.parse_energy_rule("fixed", 2.5)(7) == 2.5

    def test_energy_rule_power(self):
        rule = cli.parse_energy_rule("m^0.3", 2.5)
        assert rule(8) == pytest.approx(8 ** 0.3)

    def test_energy_rule_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown --energy-rule 'log'"):
            cli.parse_energy_rule("log", 2.5)

    def test_alpha_grid_endpoint_inclusive(self):
        grid = cli.alpha_grid(0.0, 2.0, 0.02)
        assert len(grid) == 101
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2.0, abs=1e-12)

    def test_alpha_grid_rejects_bad_step(self):
        with pytest.raises(ValueError, match="--alpha-step must be positive"):
            cli.alpha_grid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="--alpha-max must not be below --alpha-min"):
            cli.alpha_grid(1.0, 0.0, 0.1)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_missing_command_is_usage(self, capsys):
        assert run_cli([]) == 1
        capsys.readouterr()

    def test_unknown_command_is_usage(self, capsys):
        assert run_cli(["frobnicate"]) == 1
        capsys.readouterr()

    def test_w_exceeding_m_is_usage(self, capsys):
        rc = run_cli(["security-sweep", "--quantity", "ratio", "--m", "2",
                      "--w", "3"])
        assert rc == 1
        assert "w" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["mutinfo", "--m", "0-3"],
        ["security-sweep", "--quantity", "ratio", "--m", "0-2", "--w", "0",
         "--energy-rule", "fixed"],
        ["security-sweep", "--quantity", "ratio", "--m", "0-2", "--w", "0",
         "--energy-rule", "m^0.3"],
    ])
    def test_zero_modes_is_usage(self, args, capsys):
        # the energy rules divide E by m, so m = 0 must stop at the parser
        assert run_cli(args) == 1
        assert "mode counts must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["-1", "0", "2-3"])
    def test_protocol_demo_bad_mode_count_names_m(self, m, tmp_path, capsys):
        rc = run_cli(["protocol-demo", "--m", m, "--out", str(tmp_path / "t.jsonl")])
        assert rc == 1
        assert "argument --m:" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("args", [
        ["security-sweep", "--quantity", "enc_distance", "--m", "2", "--w", "1",
         "--energy-rule", "fixed", "--E", "-1"],
        ["security-sweep", "--quantity", "enc_distance", "--m", "2", "--w", "1",
         "--energy-rule", "fixed", "--E", "nan"],
        ["mutinfo", "--m", "2", "--E", "nan"],
        ["mutinfo", "--m", "2", "--E", "inf"],
    ])
    def test_bad_energy_names_E(self, args, tmp_path, capsys):
        rc = run_cli(args + ["--out", str(tmp_path / "out.csv")])
        assert rc == 1
        assert "argument --E:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flag, command", [
        ("--alpha-min", ["security-sweep", "--quantity", "enc_distance"]),
        ("--alpha-max", ["security-sweep", "--quantity", "enc_distance"]),
        ("--alpha-step", ["security-sweep", "--quantity", "enc_distance"]),
        ("--alpha", ["protocol-demo"]),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_flag_is_named(self, flag, command, value, tmp_path, capsys):
        rc = run_cli(command + [flag, value, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: not a finite number" in err
        assert not (tmp_path / "out").exists()

    def test_bad_energy_rule_is_usage(self, capsys):
        rc = run_cli(["mutinfo", "--m", "2", "--energy-rule", "m**2"])
        assert rc == 1
        capsys.readouterr()

    def test_capacity_exceeded_is_three(self, tmp_path, capsys):
        circuit = tmp_path / "big.json"
        circuit.write_text(
            '{"type":"circuit","gates":[{"kind":"nonlinear",'
            '"terms":[{"exps":[2,0,0,0],"g":1.0}],"t":0.5}]}')
        rc = run_cli(["protocol-demo", "--m", "4", "--circuit", str(circuit),
                      "--out", str(tmp_path / "t.jsonl")])
        assert rc == 3
        assert "capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("gate", [
        '{"kind":"nonlinear","terms":[{"exps":[400],"g":1.0}],"t":1.0}',
        '{"kind":"nonlinear","terms":[{"exps":[2],"g":1.0}],"t":1e308}',
        '{"kind":"nonlinear","terms":[{"exps":[2],"g":1e308}],"t":1.0}',
    ], ids=["exps-400", "t-1e308", "g-1e308"])
    def test_overflowing_nonlinear_phase_names_the_gate(self, gate, tmp_path, capsys):
        # the pytest config turns a numpy RuntimeWarning into an error
        circuit = tmp_path / "overflow.json"
        circuit.write_text('{"type":"circuit","gates":[' + gate + "]}")
        rc = run_cli(["protocol-demo", "--m", "1", "--circuit", str(circuit),
                      "--out", str(tmp_path / "t.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "circuit gate 0: nonlinear phase" in err
        assert "finite floats" not in err
        assert not (tmp_path / "t.jsonl").exists()

    def test_large_amplitude_kerr_cat_is_zero(self, tmp_path, capsys):
        # e^{-|alpha|^2} underflows at |alpha| = 40; the state starts at its first normal term
        out = tmp_path / "t.jsonl"
        rc = run_cli(["protocol-demo", "--m", "1", "--x", "0", "--alpha", "40",
                      "--circuit", "kerr-cat", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        last = json.loads(out.read_text().splitlines()[-1])
        assert last["type"] == "cat_fidelity" and last["value"] >= 1 - 1e-8

    def test_three_mode_kerr_over_the_size_cap_is_three(self, tmp_path, capsys):
        # |alpha| = 1.9 per mode gives cutoff 38, whose blocks hold 5.11M > 2^22 entries
        circuit = tmp_path / "kerr3.json"
        circuit.write_text(
            '{"type":"circuit","gates":[{"kind":"nonlinear",'
            '"terms":[{"exps":[2,0,0],"g":1.0}],"t":0.5},'
            '{"kind":"interferometer","matrix":[[[0,0],[1,0],[0,0]],[[1,0],[0,0],[0,0]],'
            '[[0,0],[0,0],[1,0]]]}]}')
        rc = run_cli(["protocol-demo", "--m", "3", "--alpha", "1.9",
                      "--circuit", str(circuit), "--out", str(tmp_path / "t.jsonl")])
        assert rc == 3
        assert ("capacity exceeded: the number basis of total photon number at most 38 on 3 "
                "modes" in capsys.readouterr().err)
        assert not (tmp_path / "t.jsonl").exists()

    def test_three_mode_haar_kerr_haar_under_the_cap_runs(self, tmp_path, capsys):
        # |alpha| = 1.2 gives cutoff 23: 2600 states, 0.49M block entries, inside 2^22
        circuit = CircuitDescription((haar_random_unitary(3, 1),
                                      NonlinearPhaseSpec(terms={(1, 1, 0): 0.2}),
                                      haar_random_unitary(3, 2)))
        path = tmp_path / "hkh.json"
        path.write_text(circuit_to_json(circuit))
        out = tmp_path / "t.jsonl"
        rc = run_cli(["protocol-demo", "--m", "3", "--alpha", "1.2", "--x", "101",
                      "--circuit", str(path), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = {ln["type"]: ln for ln in map(json.loads, out.read_text().splitlines())}
        assert lines["correctness"]["pass"] and lines["output"]["match"]
        returned = json.loads(out.read_text().splitlines()[4])["body"]
        assert returned["cutoff"] == 23 and len(returned["payload"]) == 2600

    def test_overflowing_alpha_in_protocol_demo_is_three(self, tmp_path, capsys):
        rc = run_cli(["protocol-demo", "--m", "1", "--alpha", "1e200", "--circuit", "kerr-cat",
                      "--out", str(tmp_path / "t.jsonl")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "capacity exceeded" in err and "Traceback" not in err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("quantity", ["enc_distance", "unenc_distance"])
    def test_overflowing_alpha_in_security_sweep_is_usage(self, quantity, tmp_path, capsys):
        rc = run_cli(["security-sweep", "--quantity", quantity, "--m", "2",
                      "--alpha-min", "1e200", "--alpha-max", "1e200", "--alpha-step", "1",
                      "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "m|alpha|^2 a finite double" in err and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", [
        ["mutinfo", "--m", "2-20"],
        ["security-sweep", "--quantity", "ratio", "--m", "12", "--w", "1"],
    ])
    @pytest.mark.parametrize("rule", ["m^400", "m^inf", "m^nan"])
    def test_overflowing_energy_rule_is_named(self, command, rule, tmp_path, capsys):
        rc = run_cli(command + ["--energy-rule", rule, "--out", str(tmp_path / "out.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--energy-rule '{rule}'" in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("alpha_max, step", [("1e308", "1e-300"), ("1", "1e-9")])
    def test_oversized_alpha_grid_names_step(self, alpha_max, step, tmp_path, capsys):
        rc = run_cli(["security-sweep", "--quantity", "enc_distance", "--alpha-max", alpha_max,
                      "--alpha-step", step, "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "--alpha-step gives more than" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["security-sweep", "--quantity", "ratio", "--w", "1,,2"],
         "argument --w: empty entry in '1,,2'"),
        (["protocol-demo", "--alpha", "abc"], "argument --alpha: not a number: 'abc'"),
        (["mutinfo", "--m", "2", "--energy-rule", "m^x"], "bad exponent in --energy-rule 'm^x'"),
        (["protocol-demo", "--m", "1", "--circuit", "swap"],
         "the swap circuit needs at least two modes"),
        (["security-sweep", "--quantity", "enc_distance", "--m", "10", "--w", "1-2000000"],
         "argument --w: more than 1000000 values in '1-2000000'"),
        (["protocol-demo", "--seed", "-1"], "argument --seed: seed must be nonnegative: '-1'"),
        (["protocol-demo", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["mutinfo", "--d", "0"], "phasekey: error: d must be at least 1"),
        (["mutinfo", "--d", "-5"], "phasekey: error: d must be at least 1"),
    ], ids=["empty-list-entry", "non-numeric-float", "bad-rule-exponent", "swap-one-mode",
            "list-over-cap", "negative-seed", "non-integer-seed", "mutinfo-zero-d",
            "mutinfo-negative-d"])
    def test_bad_flag_value_is_usage(self, args, message, tmp_path, capsys):
        rc = run_cli(args + ["--out", str(tmp_path / "out")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_circuit_is_usage(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        rc = run_cli(["protocol-demo", "--circuit", str(missing), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"unknown circuit {str(missing)!r} and no such file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_check_is_two(self, monkeypatch, capsys):
        cli.build_parser()  # the patch must reach a parser built before it
        monkeypatch.setattr(
            cli, "run_checks",
            lambda level: [CheckResult("stub", deviation=1.0, tolerance=1e-9)])
        assert run_cli(["oracle-check"]) == 2
        out = capsys.readouterr().out
        assert "FAIL stub" in out

    def test_failed_correctness_is_two(self, monkeypatch, tmp_path, capsys):
        cli.build_parser()  # the patch must reach a parser built before it
        real = cli.run_protocol

        def doctored(*a, **kw):
            tr = real(*a, **kw)
            tr.correctness["pass"] = False
            return tr

        monkeypatch.setattr(cli, "run_protocol", doctored)
        rc = run_cli(["protocol-demo", "--m", "1", "--out",
                      str(tmp_path / "t.jsonl")])
        assert rc == 2
        capsys.readouterr()


class TestSecuritySweep:
    def test_header_and_row_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli(["security-sweep", "--quantity", "enc_distance",
                      "--m", "2,1", "--w", "0-1", "--d", "5",
                      "--alpha-min", "0.2", "--alpha-max", "0.6",
                      "--alpha-step", "0.2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,m,d,abs_alpha,E,w,value"
        # 2 m-values x 2 w-values x 3 alphas
        assert len(lines) == 1 + 12
        ms = [int(line.split(",")[1]) for line in lines[1:]]
        assert ms == sorted(ms)

    def test_values_match_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["security-sweep", "--quantity", "enc_distance", "--m", "3",
                 "--w", "2", "--d", "7", "--alpha-min", "0.5",
                 "--alpha-max", "0.5", "--alpha-step", "0.1",
                 "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        p = SecurityParams(m=3, d=7, abs_alpha=0.5, w=2)
        assert float(row[3]) == 0.5
        assert float(row[4]) == pytest.approx(p.E, abs=1e-15)
        assert float(row[6]) == pytest.approx(encrypted_trace_distance(p), abs=1e-15)

    def test_ratio_undefined_at_alpha_zero_and_w_zero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["security-sweep", "--quantity", "ratio", "--m", "2",
                 "--w", "0,1", "--alpha-min", "0.0", "--alpha-max", "0.3",
                 "--alpha-step", "0.3", "--out", str(out)])
        lines = out.read_text().splitlines()[1:]
        undefined = [line for line in lines if line.endswith(",undefined")]
        # w=0 rows at both alphas, plus the alpha=0 row at w=1
        assert len(undefined) == 3
        defined = [line for line in lines if not line.endswith(",undefined")]
        assert len(defined) == 1 and defined[0].split(",")[5] == "1"

    @pytest.mark.parametrize("m, alpha", [("1", "1e-200"), ("10", "1e-170")])
    def test_ratio_undefined_where_alpha_squared_rounds_to_zero(self, m, alpha, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["security-sweep", "--quantity", "ratio", "--m", m, "--w", "1",
                        "--alpha-min", alpha, "--alpha-max", alpha, "--alpha-step", "1",
                        "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 1 and rows[0].endswith(",undefined")

    def test_energy_rule_fixed_pins_alpha(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["security-sweep", "--quantity", "ratio", "--m", "2-4",
                 "--w", "1", "--energy-rule", "fixed", "--E", "1.0",
                 "--out", str(out)])
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            parts = line.split(",")
            m = int(parts[1])
            assert float(parts[3]) == pytest.approx(math.sqrt(1.0 / m), abs=1e-15)
            assert float(parts[4]) == pytest.approx(1.0, abs=1e-15)

    def test_energy_rule_power_scales_energy(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["security-sweep", "--quantity", "ratio", "--m", "2,8",
                 "--w", "1", "--energy-rule", "m^0.3", "--out", str(out)])
        lines = out.read_text().splitlines()[1:]
        es = [float(line.split(",")[4]) for line in lines]
        assert es[0] == pytest.approx(2 ** 0.3, abs=1e-12)
        assert es[1] == pytest.approx(8 ** 0.3, abs=1e-12)

    def test_output_bytes_are_stable(self, tmp_path):
        args = ["security-sweep", "--quantity", "unenc_distance", "--m", "4",
                "--w", "1-4", "--alpha-min", "0.0", "--alpha-max", "1.0",
                "--alpha-step", "0.1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_floats_carry_round_trip_precision(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["security-sweep", "--quantity", "enc_distance", "--m", "1",
                 "--w", "1", "--alpha-min", "0.3", "--alpha-max", "0.3",
                 "--alpha-step", "0.1", "--d", "3", "--out", str(out)])
        value = out.read_text().splitlines()[1].split(",")[6]
        assert float(value) == encrypted_trace_distance(
            SecurityParams(m=1, d=3, abs_alpha=0.3, w=1))

    def test_equal_codewords_past_the_series_cap_are_at_distance_zero(self, tmp_path, capsys):
        # E = 4900 puts the tail-1e-14 series past the 4096 cap: equal
        # codewords need no series, distinct ones still exceed the capacity
        args = ["security-sweep", "--quantity", "enc_distance", "--m", "1", "--d", "4",
                "--alpha-min", "70", "--alpha-max", "70", "--alpha-step", "1"]
        out = tmp_path / "sweep.csv"
        assert run_cli(args + ["--w", "0", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["enc_distance,1,4,70,4900,0,0"]
        assert run_cli(args + ["--w", "1", "--out", str(tmp_path / "w1.csv")]) == 3
        assert "capacity" in capsys.readouterr().err


    @pytest.mark.parametrize("quantity, value", [("enc_distance", "0.8646647167633813"),
                                                 ("ratio", "0.87269362089782365")])
    def test_key_space_of_ten_to_the_twelve(self, quantity, value, capsys):
        # the class sums are sized by the series, so d = 10^12 prints the d = 10^5 value,
        # and so do key spaces past an int64 (2^63, 10^30)
        args = ["security-sweep", "--quantity", quantity, "--m", "2", "--w", "1",
                "--alpha-min", "1", "--alpha-max", "1", "--alpha-step", "1"]
        keys = (100000, 1000000000000, 2 ** 63, 10 ** 30)
        rows = []
        for d in keys:
            assert run_cli(args + ["--d", str(d)]) == 0
            rows.append(capsys.readouterr().out.splitlines()[1])
        assert rows == [f"{quantity},2,{d},1,2,1,{value}" for d in keys]


class TestSweepLines:
    """Each (m, w) line is one array pass: the same values, ratio rule and errors as row by row."""

    def test_ratio_undefined_exactly_where_the_one_row_ratio_is(self, capsys):
        # |alpha| = 1e-200 squares to 0.0, so its distances are 0.0 and its ratio undefined
        args = ["security-sweep", "--quantity", "ratio", "--m", "3", "--w", "0-3", "--d", "5",
                "--alpha-min", "1e-200", "--alpha-max", "0.6", "--alpha-step", "0.1"]
        assert run_cli(args) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        want = []
        for w in range(4):
            for abs_alpha in cli.alpha_grid(1e-200, 0.6, 0.1):
                try:
                    value = wire_float(suppression_ratio(
                        SecurityParams(m=3, d=5, abs_alpha=abs_alpha, w=w)).ratio)
                except ValueError:
                    value = "undefined"
                want.append(f"ratio,3,5,{wire_float(abs_alpha)},"
                            f"{wire_float(3 * abs_alpha ** 2)},{w},{value}")
        assert rows == want
        undefined = [row for row in rows if row.endswith(",undefined")]
        assert len(undefined) == 7 + 3  # every w = 0 row, and 1e-200 at w = 1, 2, 3
        assert all(row.split(",")[3] == wire_float(1e-200) or row.split(",")[5] == "0"
                   for row in undefined)

    @pytest.mark.parametrize("quantity", ["enc_distance", "ratio"])
    def test_run_across_the_series_cap_names_the_first_row_over_it(self, quantity, capsys):
        # E = |alpha|^2 = 3025..4900: the tail-1e-14 series passes the 4096 cap first at
        # |alpha| = 61; the w = 0 line before it needs no series and does not stop there
        assert truncation_bound(3600.0, SERIES_TAIL_EPS) <= 4096
        with pytest.raises(CapacityError):
            truncation_bound(3721.0, SERIES_TAIL_EPS)
        assert run_cli(["security-sweep", "--quantity", quantity, "--m", "1", "--d", "4",
                        "--w", "0-1", "--alpha-min", "55", "--alpha-max", "70",
                        "--alpha-step", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("phasekey: capacity exceeded: cutoff for tail 1e-14 at energy "
                                "3721 exceeds the cap 4096\n")

    def test_equal_codeword_lines_past_the_cap_build_no_series(self, capsys):
        misses = fock._poisson_terms.cache_info().misses
        assert run_cli(["security-sweep", "--quantity", "enc_distance", "--m", "1,2", "--d", "4",
                        "--w", "0", "--alpha-min", "60", "--alpha-max", "70",
                        "--alpha-step", "2.5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 10 and {row.split(",")[6] for row in rows} == {"0"}
        assert fock._poisson_terms.cache_info().misses == misses

    @pytest.mark.parametrize("ws, code, message", [
        ("1", 3, "capacity exceeded: cutoff for tail 1e-14 at energy 4225"),
        ("0-1", 1, "error: |alpha| must be finite"),
    ])
    def test_invalid_alpha_after_a_row_over_the_cap(self, ws, code, message, capsys):
        # rows run w by w: the w = 1 line stops at |alpha| = 65 over the cap, while a
        # w = 0 line first reaches the |alpha| = 1e199 whose energy overflows
        assert run_cli(["security-sweep", "--quantity", "enc_distance", "--m", "1", "--w", ws,
                        "--alpha-min", "65", "--alpha-max", "1e200",
                        "--alpha-step", "1e199"]) == code
        assert message in capsys.readouterr().err


class TestMutinfo:
    def test_header_and_values(self, tmp_path):
        out = tmp_path / "mi.csv"
        rc = run_cli(["mutinfo", "--m", "2-4", "--energy-rule", "fixed",
                      "--E", "1.0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,E,abs_alpha,i_total"
        for line in lines[1:]:
            m_s, e_s, a_s, i_s = line.split(",")
            m = int(m_s)
            assert float(e_s) == 1.0
            assert float(a_s) == pytest.approx(math.sqrt(1.0 / m), abs=1e-15)
            ref = pgm_closed_form(math.sqrt(1.0 / m), modes=m).i_total
            assert float(i_s) == pytest.approx(ref, abs=1e-15)

    def test_power_rule_grows_information(self, tmp_path):
        out = tmp_path / "mi.csv"
        run_cli(["mutinfo", "--m", "2-12", "--energy-rule", "m^0.3",
                 "--out", str(out)])
        vals = [float(line.split(",")[3])
                for line in out.read_text().splitlines()[1:]]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_information_never_exceeds_the_message_bits(self, tmp_path):
        # at |alpha| = sqrt(m) >~ 5 the codeword states are orthogonal to
        # double precision, where rounding once gave i_total above m
        out = tmp_path / "mi.csv"
        assert run_cli(["mutinfo", "--m", "2-20", "--energy-rule", "m^2",
                        "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 19
        assert all(float(i_s) <= int(m_s) for m_s, _, _, i_s in rows)

    def test_d_flag_accepted_without_effect(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["mutinfo", "--m", "3", "--d", "2", "--out", str(a)])
        run_cli(["mutinfo", "--m", "3", "--d", "999", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestOracleCheck:
    def test_fast_level_passes_and_prints_one_line_per_check(self, capsys):
        assert run_cli(["oracle-check", "--level", "fast"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line.startswith("PASS ") for line in out[:-1])
        assert out[-1] == f"{len(out) - 1}/{len(out) - 1} checks passed at level fast"
        for line in out[:-1]:
            assert "max deviation" in line and "tolerance" in line

    def test_full_level_passes_every_check_in_order(self, capsys):
        names = ["coherent-overlap-identity", "unencrypted-distance-closed-vs-numeric",
                 "residue-class-sums-vs-enumeration", "encrypted-distance-vs-dense-oracle",
                 "block-reconstruction-vs-channel-average", "rank2-eigenvalue-lemma-vs-dense",
                 "complement-indistinguishability-closed-form",
                 "encrypted-distance-vs-support-oracle-m3",
                 "complement-indistinguishability-numeric", "pgm-closed-form-vs-numeric"]
        assert len(FAST_CHECKS + FULL_ONLY_CHECKS) == len(names)
        results = run_checks("full")
        assert [r.name for r in results] == names
        assert all(r.passed for r in results)
        assert run_cli(["oracle-check", "--level", "full"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out[:-1]] == [f"PASS {name}" for name in names]
        assert out[-1] == "10/10 checks passed at level full"

    def test_output_is_deterministic(self, capsys):
        run_cli(["oracle-check", "--level", "fast"])
        first = capsys.readouterr().out
        run_cli(["oracle-check", "--level", "fast"])
        assert capsys.readouterr().out == first


class TestProtocolDemo:
    def test_swap_demo_decodes_swapped_bits(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        rc = run_cli(["protocol-demo", "--m", "2", "--x", "01", "--alpha",
                      "1.1", "--circuit", "swap", "--seed", "5",
                      "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "decoded y = 10" in text
        records = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = [r["type"] for r in records]
        assert kinds == ["params", "key", "message", "message", "message",
                         "decrypt_ops", "correctness", "output"]
        assert records[-1]["y"] == "10" and records[-1]["match"] is True

    def test_kerr_cat_transcript_has_high_fidelity_record(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        rc = run_cli(["protocol-demo", "--m", "1", "--x", "0", "--alpha",
                      "1.5", "--circuit", "kerr-cat", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        last = json.loads(out.read_text().splitlines()[-1])
        assert last["type"] == "cat_fidelity"
        assert 1 - 1e-8 <= last["value"] <= 1.0

    def test_kerr_cat_fidelity_targets_the_sent_bit(self, tmp_path, capsys):
        # bit 1 is carried by -alpha, so its cat is built from -alpha; against the
        # cat of +alpha the same perfect state read 1.2e-4
        out = tmp_path / "t.jsonl"
        rc = run_cli(["protocol-demo", "--m", "1", "--x", "1", "--alpha",
                      "1.5", "--circuit", "kerr-cat", "--seed", "3", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        last = json.loads(out.read_text().splitlines()[-1])
        assert last["type"] == "cat_fidelity"
        assert 1 - 1e-8 <= last["value"] <= 1.0

    def test_degenerate_code_reports_undecodable_and_its_flags(self, tmp_path, capsys):
        rc = run_cli(["protocol-demo", "--alpha", "0", "--d", "1",
                      "--out", str(tmp_path / "t.jsonl")])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert "decoded y: undecodable" in out
        assert "flag: no security: trivial key space" in out
        assert "flag: degenerate code: alpha = 0" in out

    def test_random_bits_are_seed_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            run_cli(["protocol-demo", "--m", "6", "--seed", "42",
                     "--out", str(path)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_x_must_match_m(self, tmp_path, capsys):
        rc = run_cli(["protocol-demo", "--m", "3", "--x", "01"])
        assert rc == 1
        assert "--x" in capsys.readouterr().err

    def test_bad_x_characters_are_usage(self, capsys):
        rc = run_cli(["protocol-demo", "--m", "2", "--x", "ab"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("x, bad", [("\uff11\uff10", "\uff11"), ("1a", "a")])
    def test_x_takes_only_ascii_bits(self, x, bad, capsys):
        # int() reads fullwidth digits, so "\uff11\uff10" once ran as x = 10
        rc = run_cli(["protocol-demo", "--m", "2", "--x", x])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"bad --x: bits must be the characters 0 and 1, got {bad!r}" in err

    def test_kerr_cat_needs_one_mode(self, capsys):
        rc = run_cli(["protocol-demo", "--m", "2", "--circuit", "kerr-cat"])
        assert rc == 1
        capsys.readouterr()

    def test_circuit_file_round_trip(self, tmp_path, capsys):
        circuit = tmp_path / "c.json"
        circuit.write_text(
            '{"type":"circuit","gates":[{"kind":"interferometer",'
            '"matrix":[[[0,0],[1,0]],[[1,0],[0,0]]]}]}')
        out = tmp_path / "t.jsonl"
        rc = run_cli(["protocol-demo", "--m", "2", "--x", "10", "--circuit",
                      str(circuit), "--out", str(out)])
        assert rc == 0
        assert "decoded y = 01" in capsys.readouterr().out

    def test_malformed_circuit_file_is_usage(self, tmp_path, capsys):
        circuit = tmp_path / "bad.json"
        circuit.write_text('{"type":"circuit","gates":[{')
        rc = run_cli(["protocol-demo", "--m", "1", "--circuit", str(circuit)])
        assert rc == 1
        assert "bad circuit file" in capsys.readouterr().err

    def test_builtin_name_wins_over_a_file_of_that_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "swap").write_text("not a circuit")
        assert run_cli(["protocol-demo", "--m", "3", "--x", "101", "--circuit", "swap",
                        "--out", "t.jsonl"]) == 0
        assert "decoded y = 011" in capsys.readouterr().out
        assert run_cli(["protocol-demo", "--m", "3", "--circuit", "./swap"]) == 1
        assert "bad circuit file ./swap" in capsys.readouterr().err

    def test_well_formed_json_bad_circuit_is_usage(self, tmp_path, capsys):
        # one except ValueError catches this and, as JSONDecodeError, malformed JSON
        circuit = tmp_path / "bad.json"
        circuit.write_text('{"type":"circuit","gates":[{"kind":"x"}]}')
        rc = run_cli(["protocol-demo", "--m", "1", "--circuit", str(circuit)])
        assert rc == 1
        assert "bad circuit file" in capsys.readouterr().err
        assert not hasattr(cli, "json")


class TestSharedParser:
    """main parses with one parser per process; no call may change the next."""

    def test_three_calls_build_one_parser(self, tmp_path, capsys):
        cli.build_parser.cache_clear()
        assert run_cli(["mutinfo", "--m", "2", "--out", str(tmp_path / "mi.csv")]) == 0
        assert run_cli(["protocol-demo", "--alpha", "abc"]) == 1
        assert run_cli(["protocol-demo", "--out", str(tmp_path / "t.jsonl")]) == 0
        capsys.readouterr()
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("argv", [["security-sweep", "--quantity", "ratio"], ["mutinfo"],
                                      ["oracle-check"], ["protocol-demo"]])
    def test_defaults_are_immutable(self, argv):
        for dest, value in vars(cli.build_parser().parse_args(argv)).items():
            assert not isinstance(value, (list, dict, set)), dest

    def test_default_mutinfo_twice_gives_the_golden_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["mutinfo", "--out", str(a)]) == 0
        assert run_cli(["mutinfo", "--out", str(b)]) == 0
        golden = Path(__file__).parent / "golden" / "mutinfo_fixed_E1.csv"
        assert a.read_bytes() == b.read_bytes() == golden.read_bytes()

    def test_demo_after_a_usage_error_matches_a_fresh_run(self, tmp_path, capsys):
        argv = ["protocol-demo", "--m", "1", "--alpha", "1.5", "--x", "0",
                "--circuit", "kerr-cat"]
        assert run_cli(["protocol-demo", "--m", "2", "--alpha", "abc"]) == 1
        capsys.readouterr()
        assert run_cli(argv + ["--out", str(tmp_path / "here.jsonl")]) == 0
        here = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "phasekey.cli", *argv, "--out", str(tmp_path / "fresh.jsonl")],
            capture_output=True, text=True)
        assert fresh.returncode == 0, fresh.stderr
        assert here == fresh.stdout
        assert (tmp_path / "here.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()

    def test_help_exits_zero_twice(self, capsys):
        assert run_cli(["--help"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["--help"]) == 0
        assert capsys.readouterr().out == first

    def test_patched_cap_reaches_a_built_parser(self, monkeypatch, capsys):
        # the parser holds parse_int_list, which reads ALPHA_GRID_CAP per call
        cli.build_parser()
        monkeypatch.setattr(cli, "ALPHA_GRID_CAP", 5)
        assert run_cli(["security-sweep", "--quantity", "ratio", "--m", "10",
                        "--w", "1-9"]) == 1
        assert "argument --w: more than 5 values in '1-9'" in capsys.readouterr().err


class TestSubprocessSurface:
    def test_module_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phasekey.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "security-sweep" in proc.stdout

    def test_number_basis_demo_leaves_scipy_unloaded(self, tmp_path):
        circuit = tmp_path / "cross_kerr.json"
        circuit.write_text(
            '{"type":"circuit","gates":[{"kind":"nonlinear",'
            '"terms":[{"exps":[1,1],"g":0.5}],"t":1.0},{"kind":"interferometer",'
            '"matrix":[[[0.6,0],[0.8,0]],[[-0.8,0],[0.6,0]]]}]}')
        out = tmp_path / "t.jsonl"
        argv = ["protocol-demo", "--m", "2", "--x", "10", "--alpha", "1.2",
                "--circuit", str(circuit), "--out", str(out)]
        code = ("import sys\n"
                "from phasekey import cli\n"
                f"rc = cli.main({argv!r})\n"
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
        returned = json.loads(out.read_text().splitlines()[4])["body"]
        assert returned["repr"] == "fock"

    def test_import_builds_no_parser(self):
        code = ("from phasekey import cli\n"
                "print(cli.build_parser.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_module_usage_error_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phasekey.cli", "security-sweep"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "--quantity" in proc.stderr
