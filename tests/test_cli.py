"""CLI tests: report schema, frozen outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from localglobal import cli, cubic, selmer
from localglobal.padic import InsufficientPrecision
from localglobal.reichardt_lind import NoPointError
from localglobal.symbols import InvariantValue, as_place


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestSymbolCommands:
    def test_legendre_example(self, capsys):
        code, rep = run_json(capsys, "symbol", "legendre", "1", "7")
        assert code == 0 and rep["status"] == "ok"
        assert rep["result"]["value"] == "+1"

    def test_quartic(self, capsys):
        code, rep = run_json(capsys, "symbol", "quartic", "2", "17")
        assert code == 0 and rep["result"]["value"] == "-1"

    def test_hilbert2_real_place(self, capsys):
        code, rep = run_json(capsys, "symbol", "hilbert2", "-1", "-1", "infinity")
        assert code == 0
        assert rep["result"]["sign"] == -1
        assert rep["result"]["invariant"] == "1/2"

    def test_hilbert2_finite(self, capsys):
        code, rep = run_json(capsys, "symbol", "hilbert2", "2", "17", "17")
        assert rep["result"]["invariant"] == "0"

    def test_hilbert3_rational_arguments_pair_to_zero(self, capsys):
        # rational classes are fixed by conjugation, so the skew pairing
        # must vanish on any two of them
        for a, b in (("2", "3"), ("60", "2"), ("5", "12")):
            code, rep = run_json(capsys, "symbol", "hilbert3", a, b)
            assert code == 0 and rep["result"]["invariant"] == "0"


class TestRlCommands:
    def test_verify_frozen_report(self, capsys):
        code, rep = run_json(capsys, "rl", "verify", "--ell", "2", "--p", "17")
        assert code == 0
        assert rep["status"] == "obstructed"
        result = rep["result"]
        assert rep["params"] == {"ell": 2, "p": 17}
        assert sorted(result) == ["conditions", "ell", "forced_analysis", "p", "point_analysis"]
        for analysis in (result["point_analysis"], result["forced_analysis"]):
            assert analysis["total"] == ["1/2"]
            assert analysis["verdict"] == "obstructed"
            assert analysis["contributions"]["17"] == ["1/2"]
            assert analysis["contributions"]["2"] == ["0"]
            assert analysis["contributions"]["infinity"] == ["0"]
        assert all(result["conditions"].values())

    def test_verify_rejected_twist_is_ok(self, capsys):
        code, rep = run_json(capsys, "rl", "verify", "--ell", "2", "--p", "73")
        assert code == 0 and rep["status"] == "ok"
        assert not rep["result"]["conditions"]["quartic_nonresidue"]

    def test_search(self, capsys):
        code, rep = run_json(capsys, "rl", "search", "--ell", "2", "--max-prime", "100")
        assert code == 0
        assert rep["result"]["twists"] == [17, 41, 97]
        assert sorted(rep["timings"]) == ["forced", "sieve", "total"]

    def test_density_small_exact(self, capsys):
        code, rep = run_json(capsys, "rl", "density", "--ell", "2", "--max-prime", "20")
        assert code == 0
        assert rep["result"]["empirical"] == "1/8"
        assert rep["result"]["predicted"] == "1/8"
        assert rep["result"]["relative_error"] == "0.000000"

    def test_density_odd_ell_one_mod_eight(self, capsys):
        # -7 = 1 mod 8: (iv) holds for every p = 1 mod 8, so 1/2^(n+3)
        code, rep = run_json(capsys, "rl", "density", "--ell", "-7", "--max-prime", "20000")
        assert code == 0 and rep["result"]["predicted"] == "1/16"
        assert float(rep["result"]["relative_error"]) < 0.15

    def test_density_ell_one_is_an_error(self, capsys):
        code, rep = run_json(capsys, "rl", "density", "--ell", "1", "--max-prime", "100")
        assert code == 1 and rep["status"] == "error"
        assert rep["result"]["message"].startswith("ValueError: ell = +-1")

    def test_density_below_every_prime_is_an_error(self, capsys):
        code, rep = run_json(capsys, "rl", "density", "--ell", "2", "--max-prime", "1")
        assert code == 1 and rep["status"] == "error"
        assert rep["result"]["message"].startswith("ValueError: max_prime = 1 leaves no prime")

    def test_exhaust_empty(self, capsys):
        code, rep = run_json(capsys, "rl", "exhaust", "--bound", "50")
        assert code == 0 and rep["result"]["solutions"] == []

    def test_exhaust_ell_zero_is_an_error(self, capsys):
        code, rep = run_json(capsys, "rl", "exhaust", "--ell", "0", "--bound", "3")
        assert code == 1 and rep["status"] == "error"
        assert rep["result"]["message"] == "ValueError: ell must be nonzero"

    def test_smooth(self, capsys):
        code, rep = run_json(capsys, "rl", "smooth")
        assert code == 0 and rep["result"]["all_smooth"]
        assert rep["result"]["primes"] == [3, 5, 7, 11, 13]

    def test_smooth_bad_reduction_is_an_error(self, capsys):
        code, rep = run_json(capsys, "rl", "smooth", "--primes", "2")
        assert code == 1 and rep["status"] == "error"


class TestElkiesCommands:
    def test_verify_at_infinity(self, capsys):
        code, rep = run_json(capsys, "elkies", "verify", "--t", "infinity")
        assert code == 0 and rep["status"] == "obstructed"
        result = rep["result"]
        assert result["N0"] == 17 and result["N"] == "17"
        assert result["everywhere_locally_solvable"]
        assert result["invariant"] == "1/2"
        assert rep["params"]["t"] == "infinity"

    def test_verify_composite(self, capsys):
        code, rep = run_json(capsys, "elkies", "verify", "--t", "1")
        assert code == 0
        assert rep["result"]["N0"] == 1921
        assert rep["result"]["contributing_primes"] == [17]

    def test_scan_height_one(self, capsys):
        code, rep = run_json(capsys, "elkies", "scan", "--height", "1")
        assert code == 0 and rep["status"] == "obstructed"
        result = rep["result"]
        assert result["fibres"] == 4  # infinity, -1, 0, 1
        assert result["all_locally_solvable"] and result["all_obstructed"]
        assert result["every_count_odd"]


class TestSelmerCommands:
    def test_verify(self, capsys):
        code, rep = run_json(capsys, "selmer", "verify")
        assert code == 0 and rep["status"] == "ok"
        result = rep["result"]
        assert result["gamma_norm"] == ["-10", "0"]
        assert result["descent_coefficients"] == [
            ["9", "-81/5"], ["36/5", "9/5"], ["0", "-9/5"]
        ]
        assert result["F_class"] == [1, 0, 1, 0] == result["expected_class"]
        assert result["classes_match"] and result["pairing_nontrivial"]

    def test_survival(self, capsys):
        code, rep = run_json(capsys, "selmer", "survival")
        assert code == 0 and rep["status"] == "ok"
        result = rep["result"]
        assert result["annihilator_23_dimension"] == 2
        assert result["annihilator_60_dimension"] == 3
        assert result["in_annihilator_60"] and result["survives"]
        assert result["witness"] == [0, 0, 1, 2]
        assert result["tau_plus_dimension"] == result["tau_minus_dimension"] == 2
        assert result["conjugation_consistent"]


class TestPlumbing:
    def test_usage_errors_exit_64(self, capsys):
        assert cli.main(["rl", "bogus"]) == 64
        assert cli.main(["rl", "verify"]) == 64  # missing required options
        assert cli.main(["nope"]) == 64
        assert cli.main([]) == 64
        assert cli.main(["elkies", "verify", "--t", "x/y"]) == 64
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["rl", "density", "--ell", "2", "--max-prime", "-5"],
        ["rl", "search", "--ell", "2", "--max-prime", "0"],
        ["rl", "verify", "--ell", "2", "--p", "17", "--samples", "0"],
        ["rl", "verify", "--ell", "2", "--p", "17", "--samples", "-1"],
        ["elkies", "scan", "--height", "-2"],
        ["elkies", "scan", "--height", "0"],
        ["rl", "verify", "--ell", "2", "--p", "17", "--seed", "-1"],
        ["rl", "verify", "--ell", "2", "--p", "17", "--seed=-1000"],
        ["elkies", "verify", "--t=1/3", "--seed", "-3"],
        ["rl", "exhaust", "--bound", "-1"],
    ], ids=" ".join)
    def test_non_positive_precision_or_max_prime_exits_64(self, argv, capsys):
        # no command samples: --samples and --seed are unrecognized
        # arguments; a --bound may be 0
        assert cli.main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        if any(token.startswith(("--seed", "--samples")) for token in argv):
            assert "unrecognized arguments: --s" in captured.err
        else:
            least = "non-negative" if "--bound" in argv else "positive"
            assert f"must be a {least} integer" in captured.err

    @pytest.mark.parametrize("argv", [
        ["elkies", "verify", "--t=1/3"],
        ["elkies", "scan", "--height", "6"],
        ["rl", "verify", "--ell", "2", "--p", "17"],
        ["rl", "search", "--ell", "2"],
        ["selmer", "verify"],
        ["selmer", "survival"],
        ["symbol", "legendre", "2", "17"],
    ], ids=" ".join)
    def test_precision_is_a_usage_error(self, argv, capsys):
        """No command takes a digit count: --precision, at any value, is an
        unrecognized argument (exit 64), also where the value is dash-led."""
        for value in ("0", "-3", "2", "5", "16", "1000"):
            assert cli.main(argv + ["--precision", value]) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --precision" in captured.err, value
        assert cli.main(argv + ["--precision=12"]) == 64
        assert "unrecognized arguments: --precision=12" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["symbol", "legendre", "2", "17"],
        ["symbol", "quartic", "2", "17"],
        ["symbol", "hilbert2", "3", "17", "17"],
        ["symbol", "hilbert3", "2", "60"],
        ["rl", "verify", "--ell", "2", "--p", "17"],
        ["rl", "exhaust", "--bound", "3"],
        ["rl", "smooth"],
        # elkies certifies every good place by rule and reads no prime bound
        *(["elkies", "verify", f"--t={t}"] for t in ("infinity", "1", "13/5", "98/103")),
        ["elkies", "scan", "--height", "6"],
        ["selmer", "verify"],
        ["selmer", "survival"],
    ], ids=" ".join)
    def test_max_prime_elsewhere_is_a_usage_error(self, argv, capsys):
        """Only rl search and rl density test primes up to a bound:
        --max-prime on any other command, at any value, is an unrecognized
        argument (exit 64), also where the value is dash-led."""
        for value in ("0", "-5", "7", "50", "100000"):
            assert cli.main(argv + ["--max-prime", value]) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --max-prime" in captured.err, value
        assert cli.main(argv + ["--max-prime=50"]) == 64
        assert "unrecognized arguments: --max-prime=50" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_json_round_trip(self, capsys):
        _, rep = run_json(capsys, "rl", "search", "--ell", "2", "--max-prime", "60")
        assert json.loads(json.dumps(rep, sort_keys=True)) == rep

    def test_reports_deterministic_apart_from_timings(self, capsys):
        argv = ("rl", "verify", "--ell", "2", "--p", "31")
        _, first = run_json(capsys, *argv)
        _, second = run_json(capsys, *argv)
        first.pop("timings"), second.pop("timings")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_schema_keys(self, capsys):
        _, rep = run_json(capsys, "symbol", "legendre", "3", "11")
        assert sorted(rep) == ["command", "params", "result", "status", "timings"]
        assert rep["command"] == "symbol legendre"
        assert "total" in rep["timings"]

    def test_text_format(self, capsys):
        code, out = run(capsys, "rl", "search", "--ell", "2", "--max-prime",
                        "100", "--format", "text")
        assert code == 0
        assert 'command = "rl search"' in out
        assert "result.twists = [17, 41, 97]" in out

    def test_inconclusive_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise InsufficientPrecision("digit budget exhausted")

        monkeypatch.setattr(cli, "local_image", boom)
        code, rep = run_json(capsys, "rl", "verify", "--ell", "2", "--p", "17")
        assert code == 2 and rep["status"] == "inconclusive"

    def test_no_local_point_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise NoPointError(as_place(2), "a rule")

        monkeypatch.setattr(cli, "local_image", boom)
        code, rep = run_json(capsys, "rl", "verify", "--ell", "11", "--p", "41")
        assert code == 0 and rep["status"] == "no_local_point"
        assert rep["result"]["message"] == "no local point at 2: a rule"

    def test_points_outside_the_forced_sections_exit_one(self, capsys, monkeypatch):
        # forced sets of 0 alone: the points at 17 of (2, 17) reach 1/2,
        # which no local section may, so the subset check fails
        def zeros(tw):
            return cli._make_report({place: frozenset({InvariantValue.zero()})
                                     for place in tw.bad_places})

        monkeypatch.setattr(cli, "forced_section_invariants", zeros)
        code, rep = run_json(capsys, "rl", "verify", "--ell", "2", "--p", "17")
        assert code == 1 and rep["status"] == "error"
        assert rep["result"]["message"].startswith("CertificateError: the point image at 17 exceeds")

    def test_failed_verify_self_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "norm_K_over_k", lambda gamma: cli.Eisenstein.of(10))
        code, rep = run_json(capsys, "selmer", "verify")
        assert code == 1 and rep["status"] == "error"
        assert rep["result"]["gamma_norm"] == ["10", "0"]

    def test_failed_survival_self_check_exits_one(self, capsys, monkeypatch):
        def not_surviving(*args, **kwargs):
            report = selmer.survival_analysis(*args, **kwargs)
            return selmer.SurvivalReport(**dict(report._asdict(), in_annihilator_60=False))

        monkeypatch.setattr(cli, "survival_analysis", not_surviving)
        code, rep = run_json(capsys, "selmer", "survival")
        assert code == 1 and rep["status"] == "error"
        assert rep["result"]["survives"] is False

    def test_survival_runs_the_analysis_once(self, capsys, monkeypatch):
        calls = []

        def spy():
            calls.append(None)
            return selmer.survival_analysis()

        monkeypatch.setattr(cli, "survival_analysis", spy)
        code, rep = run_json(capsys, "selmer", "survival")
        assert code == 0 and rep["result"]["conjugation_consistent"]
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["survival", "verify"])
    def test_a_conjugation_that_breaks_the_galois_law_exits_one(self, capsys, monkeypatch, command):
        # tau = identity is an involution and fixes 2, 3 and 60, but it
        # keeps the pairing where the law <tau a, tau b> = -<a, b> negates it
        monkeypatch.setattr(cubic.Eisenstein, "conjugate", lambda self: self)
        cubic.cube_class_group.cache_clear()
        try:
            code, rep = run_json(capsys, "selmer", command)
        finally:
            monkeypatch.undo()
            cubic.cube_class_group.cache_clear()
        assert code == 1 and rep["status"] == "error"
        assert rep["result"]["message"] == (
            "CertificateError: tau must obey the Galois law <tau a, tau b> = -<a, b>")


# |ell| = (2^100 + 277)(2^101 + 81), both factors prime, and the fibre
# numerator of t = 12345678901/98765432107 have no factor that rho finds
# within the budget.
@pytest.mark.parametrize("argv", [
    ["rl", "verify", "--ell", str((2**100 + 277) * (2**101 + 81)), "--p", "17"],
    ["elkies", "verify", "--t=12345678901/98765432107"],
], ids=["composite-ell", "large-fibre"])
def test_exhausted_factoring_budget_is_inconclusive(argv):
    # in a child with a deadline, which a factoring without budget overruns
    source = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-m", "localglobal.cli", *argv],
                            env=env, capture_output=True, text=True, timeout=30)
    rep = json.loads(result.stdout)
    assert result.returncode == 2 and rep["status"] == "inconclusive", result.stdout
    assert rep["result"]["message"].startswith("the factoring budget of 4194304 rho iterations ran out")
