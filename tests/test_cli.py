"""CLI tests: report schema, frozen outputs, exit codes, determinism."""

import json

import pytest

from localglobal import cli, selmer
from localglobal.padic import InsufficientPrecision
from localglobal.reichardt_lind import NoPointError
from localglobal.symbols import as_place


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
        assert result["samples"] == 20 and result["totals_constant"]
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

    def test_density_small_exact(self, capsys):
        code, rep = run_json(capsys, "rl", "density", "--ell", "2", "--max-prime", "20")
        assert code == 0
        assert rep["result"]["empirical"] == "1/8"
        assert rep["result"]["predicted"] == "1/8"
        assert rep["result"]["relative_error"] == "0.000000"

    def test_exhaust_empty(self, capsys):
        code, rep = run_json(capsys, "rl", "exhaust", "--bound", "50")
        assert code == 0 and rep["result"]["solutions"] == []

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

    def test_verify_at_precision_2_names_the_unstable_class(self, capsys):
        code, rep = run_json(capsys, "selmer", "verify", "--precision", "2")
        assert code == 2 and rep["status"] == "inconclusive"
        assert rep["result"]["message"] == (
            "the descent class of the 3-adic point [0 : cbrt(10) : -2] did not"
            " stabilize: precisions 2 and 4 give different classes"
        )

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
        ["elkies", "verify", "--t=1/3", "--precision", "0"],
        ["elkies", "verify", "--t=1/3", "--precision", "-3"],
        ["elkies", "verify", "--t=1/3", "--max-prime", "0"],
        ["elkies", "scan", "--height", "1", "--max-prime", "-5"],
        ["rl", "verify", "--ell", "2", "--p", "17", "--precision", "-3"],
        ["rl", "search", "--ell", "2", "--max-prime", "0"],
        ["rl", "verify", "--ell", "2", "--p", "17", "--samples", "0"],
        ["rl", "verify", "--ell", "2", "--p", "17", "--samples", "-1"],
        ["elkies", "scan", "--height", "-2"],
        ["elkies", "scan", "--height", "0"],
    ], ids=" ".join)
    def test_non_positive_precision_or_max_prime_exits_64(self, argv, capsys):
        assert cli.main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "must be a positive integer" in captured.err

    @pytest.mark.parametrize("argv", [
        ("elkies", "verify", "--t=1/3"),
        ("rl", "verify", "--ell", "2", "--p", "17"),
    ], ids=" ".join)
    def test_low_precision_is_inconclusive_never_error(self, argv, capsys):
        code, default = run_json(capsys, *argv)
        assert code == 0 and default["status"] == "obstructed"
        for precision in range(1, 9):
            code, rep = run_json(capsys, *argv, "--precision", str(precision))
            assert rep["status"] in (default["status"], "inconclusive"), (precision, rep)
            assert code == (2 if rep["status"] == "inconclusive" else 0)
            if rep["status"] == default["status"]:
                assert rep["result"] == default["result"], precision

    def test_elkies_needs_five_digits_at_2(self, capsys):
        # the Q_2 point (0, N0^(1/4)) is read off a residue mod 2^5
        code, rep = run_json(capsys, "elkies", "verify", "--t=1/3", "--precision", "4")
        assert code == 2 and rep["result"]["message"] == (
            "the point y = 0, z = N0^(1/4) over Q_2: only 4 digits known, need 5"
        )
        code, rep = run_json(capsys, "elkies", "verify", "--t=1/3", "--precision", "5")
        assert code == 0 and rep["status"] == "obstructed"

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_json_round_trip(self, capsys):
        _, rep = run_json(capsys, "rl", "search", "--ell", "2", "--max-prime", "60")
        assert json.loads(json.dumps(rep, sort_keys=True)) == rep

    def test_reports_deterministic_apart_from_timings(self, capsys):
        argv = ("rl", "verify", "--ell", "2", "--p", "17", "--seed", "7")
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

        monkeypatch.setattr(cli, "point_obstruction", boom)
        code, rep = run_json(capsys, "rl", "verify", "--ell", "2", "--p", "17")
        assert code == 2 and rep["status"] == "inconclusive"

    def test_no_local_point_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise NoPointError(as_place(2), 8)

        monkeypatch.setattr(cli, "point_obstruction", boom)
        code, rep = run_json(capsys, "rl", "verify", "--ell", "11", "--p", "41")
        assert code == 0 and rep["status"] == "no_local_point"
        assert "no local point at 2" in rep["result"]["message"]

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
