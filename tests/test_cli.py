"""CLI behavior: exit codes, JSON output on every path, round-trips."""

import json
import math

import pytest

from lerchint import IntegrandSpec, reduced_eval, verify_batch
from lerchint.cli import (
    main,
    parse_complex,
    reduced_from_json_dict,
)
from lerchint.errors import DomainError


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


class TestComplexParsing:
    def test_forms(self):
        assert parse_complex("1.5") == 1.5 + 0j
        assert parse_complex("-2") == -2 + 0j
        assert parse_complex("0.5i") == 0.5j
        assert parse_complex("-0.5i") == -0.5j
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("1.5-0.25i") == 1.5 - 0.25j
        assert parse_complex("1e-3+2.5e-1i") == 1e-3 + 0.25j

    def test_rejects_garbage(self):
        for bad in ("", "i", "1+i", "2*3", "1 + 2j"):
            with pytest.raises(DomainError):
                parse_complex(bad)


class TestPhiCommand:
    def test_power_case(self, capsys):
        code, doc = run_json(capsys, ["phi", "--z", "0", "--s", "2.5", "--u", "1.7"])
        assert code == 0
        assert doc["value"]["re"] == pytest.approx(1.7 ** -2.5, rel=1e-12)
        assert doc["method"] == "direct-series"

    def test_ln2(self, capsys):
        code, doc = run_json(capsys, ["phi", "--z", "-1", "--s", "1", "--u", "1"])
        assert code == 0
        assert doc["value"]["re"] == pytest.approx(math.log(2.0), abs=1e-10)

    def test_domain_error_exit_2(self, capsys):
        code, doc = run_json(capsys, ["phi", "--z", "1", "--s", "0.5", "--u", "1"])
        assert code == 2
        assert doc["error"]["type"] == "DomainError"

    def test_convergence_error_exit_3(self, capsys):
        z = f"{math.cos(1.0)}+{math.sin(1.0)}i"
        code, doc = run_json(capsys, ["phi", "--z", z, "--s", "1.2", "--u", "1"])
        assert code == 3
        assert doc["error"]["type"] == "ConvergenceError"

    def test_tol_range_enforced(self, capsys):
        code, doc = run_json(capsys, ["phi", "--z", "0", "--s", "2", "--u", "1", "--tol", "1e-20"])
        assert code == 2


class TestVerifyCommand:
    def test_trivial_pass(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "--theorem", "t3-sym", "--m", "1", "--z", "0", "--s", "1", "--u", "2"]
        )
        assert code == 0
        assert doc["pass"] is True
        assert doc["rhs"]["re"] == pytest.approx(0.25, abs=1e-12)

    def test_pair_acceptance_case(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "--theorem", "t3-pair", "--m", "3", "--z", "0.5", "--s", "1",
             "--u", "2.2", "--v", "1.1"],
        )
        assert code == 0
        assert doc["pass"] is True

    def test_t5_with_indexed_exponents(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "--theorem", "t5", "--m", "3", "--u1", "1", "--u2", "2", "--u3", "3",
             "--z", "0", "--s", "1"],
        )
        assert code == 0
        assert doc["rhs"]["re"] == pytest.approx(0.5 - 0.25 + 1.0 / 18.0, abs=1e-10)

    def test_failing_tolerance_exit_1(self, capsys):
        # this instance verifies at ~3e-13 relative, over the minimal tol
        code, doc = run_json(
            capsys,
            ["verify", "--theorem", "t4", "--m", "4", "--z", "0.9", "--s", "1",
             "--u", "1.3", "--tol", "1e-14"],
        )
        assert code == 1
        assert doc["pass"] is False

    def test_invalid_spec_exit_2(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "--theorem", "t3-pair", "--m", "3", "--z", "0.5", "--s", "1",
             "--u", "2.2", "--v", "2.2"],
        )
        assert code == 2

    def test_qmc_flag(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "--theorem", "t3-sym", "--m", "2", "--z", "0.5", "--s", "1",
             "--u", "1.3", "--qmc", "--qmc-points", "4096", "--qmc-replicates", "4"],
        )
        assert code == 0
        assert doc["lhs_qmc"] is not None
        assert doc["qmc_sigma_gap"] <= 3.0

    @pytest.mark.parametrize("flags,fragment", [
        (["--theorem", "t3-sym", "--m", "2", "--u", "1.3", "--v", "2"], "takes 1 exponent(s), got 2"),
        (["--theorem", "t5", "--m", "2", "--u", "5", "--u1", "1", "--u2", "2"],
         "takes 2 exponent(s), got 3"),
    ], ids=["t3-sym-with-v", "t5-with-u-and-indexed"])
    def test_extra_exponent_flag_exit_2(self, capsys, flags, fragment):
        # every exponent flag given reaches IntegrandSpec, which rejects the count
        code, doc = run_json(capsys, ["verify", "--z", "0.5", "--s", "1"] + flags)
        assert code == 2
        assert doc["error"]["type"] == "DomainError"
        assert fragment in doc["error"]["message"]

    def test_qmc_points_validated(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "--theorem", "t3-sym", "--m", "2", "--z", "0.5", "--s", "1",
             "--u", "1.3", "--qmc", "--qmc-points", "1000"],
        )
        assert code == 2


class TestConstantsCommand:
    def test_gamma_reduced(self, capsys):
        code, doc = run_json(capsys, ["constants", "--name", "gamma", "--m", "3", "--method", "reduced"])
        assert code == 0
        assert doc["value"] == pytest.approx(0.5772156649015329, abs=1e-8)
        assert doc["pass"] is True

    def test_ln4pi_reduced(self, capsys):
        code, doc = run_json(capsys, ["constants", "--name", "ln4pi", "--m", "2"])
        assert code == 0
        assert doc["value"] == pytest.approx(0.2415644752704905, abs=1e-8)

    def test_m_one_rejected(self, capsys):
        code, doc = run_json(capsys, ["constants", "--name", "gamma", "--m", "1"])
        assert code == 2
        assert doc["error"]["type"] == "DomainError"

    def test_qmc_method(self, capsys):
        code, doc = run_json(
            capsys,
            ["constants", "--name", "ln4pi", "--m", "2", "--method", "qmc", "--seed", "17"],
        )
        assert code == 0
        assert doc["pass"] is True

    def test_qmc_flags_checked_only_for_the_qmc_method(self, capsys):
        # the reduced method never builds QmcOptions, so it ignores a bad point count
        argv = ["constants", "--name", "gamma", "--m", "3", "--qmc-points", "100"]
        code, doc = run_json(capsys, argv + ["--method", "reduced"])
        assert code == 0
        assert doc["pass"] is True
        code, doc = run_json(capsys, argv + ["--method", "qmc"])
        assert code == 2
        assert "points must be a power of two" in doc["error"]["message"]


class TestReduceCommand:
    def test_symmetric_m3(self, capsys):
        code, doc = run_json(
            capsys,
            ["reduce", "--family", "symmetric", "--m", "3", "--z", "0.5", "--s", "1", "--u", "1.5"],
        )
        assert code == 0
        assert len(doc["terms"]) == 1
        assert doc["terms"][0]["coeff"]["re"] == pytest.approx(0.5)
        assert doc["terms"][0]["p"]["re"] == pytest.approx(3.0)

    def test_f_kernel_m3_has_p_s_plus_one(self, capsys):
        code, doc = run_json(
            capsys,
            ["reduce", "--family", "f-kernel", "--m", "3", "--z", "0.5", "--s", "1",
             "--u", "2", "--v", "1"],
        )
        assert code == 0
        assert len(doc["terms"]) == 2
        assert all(t["p"]["re"] == pytest.approx(2.0) for t in doc["terms"])

    def test_distinct_coefficients(self, capsys):
        code, doc = run_json(
            capsys,
            ["reduce", "--family", "distinct-exponents", "--m", "3", "--z", "0", "--s", "1",
             "--u1", "1", "--u2", "2", "--u3", "3"],
        )
        assert code == 0
        coeffs = [t["coeff"]["re"] for t in doc["terms"]]
        assert coeffs == pytest.approx([0.5, -1.0, 0.5])

    def test_spec_file_and_roundtrip(self, capsys, tmp_path):
        spec_doc = {
            "m": 3,
            "family": "f-kernel",
            "exponents": [{"re": 2.2, "im": 0.0}, 1.1],
            "z": 0.5,
            "s": {"re": 1.0, "im": 0.0},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_doc))
        code, doc = run_json(capsys, ["reduce", "--spec", str(path), "--evaluate", "--tol", "1e-10"])
        assert code == 0
        # feeding the emitted reduction back in reproduces the same value
        rebuilt = reduced_from_json_dict(doc)
        again = reduced_eval(rebuilt, 1e-10)
        assert again.value.real == pytest.approx(doc["value"]["re"], abs=1e-12)

    @pytest.mark.parametrize("prefactor", [True, "2"], ids=["bool", "string"])
    def test_prefactor_must_be_a_json_number(self, prefactor):
        doc = {"prefactor": prefactor, "terms": [{"coeff": 1, "w": 1, "p": 1, "z": 0.5}]}
        with pytest.raises(DomainError, match="prefactor must be a JSON number"):
            reduced_from_json_dict(doc)
        del doc["prefactor"]
        assert reduced_from_json_dict(doc).prefactor == 1.0

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": 2, "family": "f-kernel"},
            {"m": 3, "family": "symmetric", "exponents": 1.3, "z": 0.5, "s": 1},
            [1, 2],
            {"m": "x", "family": "symmetric", "exponents": [1.3], "z": 0.5, "s": 1},
            {"m": 2.7, "family": "symmetric", "exponents": [1.3], "z": 0.5, "s": 1},
            {"m": True, "family": "symmetric", "exponents": [1.3], "z": 0.5, "s": 1},
            {"m": 2, "family": "symmetric", "exponents": [True], "z": 0.5, "s": 1},
            {"m": 2, "family": "symmetric", "exponents": [1.3], "z": 0.5, "s": True},
            {"m": 2, "family": "symmetric", "exponents": [1.3], "z": {"re": True, "im": 0}, "s": 1},
        ],
        ids=["missing-field", "scalar-exponents", "top-level-array", "non-integer-m",
             "fractional-m", "bool-m", "bool-exponent", "bool-s", "bool-re-part"],
    )
    def test_schema_error_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["reduce", "--spec", str(path)])
        assert code == 2
        assert out["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("field, value", [("s", math.inf), ("z", math.nan), ("exponents", [math.inf])])
    def test_non_finite_spec_file_exit_2(self, capsys, tmp_path, field, value):
        # json reads NaN and Infinity; an infinite s used to end in a ValueError
        # traceback and exit 1, the code for "outside tolerance"
        doc = {"m": 2, "family": "symmetric", "exponents": [1.3], "z": 0.5, "s": 1}
        doc[field] = value
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["reduce", "--spec", str(path), "--evaluate"])
        assert code == 2
        assert out["error"]["type"] == "DomainError"

    def test_degenerate_exit_2(self, capsys):
        code, doc = run_json(
            capsys,
            ["reduce", "--family", "f-kernel", "--m", "2", "--z", "0", "--s", "1",
             "--u", "1", "--v", "1"],
        )
        assert code == 2


class TestOutputModes:
    def test_text_mode(self, capsys):
        code, out = run_cli(capsys, ["--output", "text", "phi", "--z", "0", "--s", "2", "--u", "1"])
        assert code == 0
        assert "value" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_json_on_error_paths(self, capsys):
        code, out = run_cli(capsys, ["phi", "--z", "2", "--s", "1", "--u", "1"])
        assert code == 2
        json.loads(out)


class TestSeedEnvOverride:
    def test_env_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv("LERCHINT_SEED", "29")
        code, doc = run_json(
            capsys,
            ["verify", "--theorem", "t3-sym", "--m", "2", "--z", "0.5", "--s", "1",
             "--u", "1.3", "--qmc", "--qmc-points", "1024", "--qmc-replicates", "4"],
        )
        assert code == 0
        assert doc["lhs_qmc"]["seed"] == 29

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LERCHINT_SEED", "29")
        code, doc = run_json(
            capsys,
            ["verify", "--theorem", "t3-sym", "--m", "2", "--z", "0.5", "--s", "1",
             "--u", "1.3", "--qmc", "--qmc-points", "1024", "--qmc-replicates", "4",
             "--seed", "5"],
        )
        assert code == 0
        assert doc["lhs_qmc"]["seed"] == 5

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("LERCHINT_SEED", "zzz")
        code, doc = run_json(
            capsys,
            ["verify", "--theorem", "t3-sym", "--m", "2", "--z", "0.5", "--s", "1", "--u", "1.3"],
        )
        assert code == 2

    def test_negative_seed_exit_2(self, capsys, monkeypatch):
        argv = ["verify", "--theorem", "t3-sym", "--m", "2", "--z", "0.5", "--s", "1",
                "--u", "1", "--qmc"]
        code, doc = run_json(capsys, argv + ["--seed", "-1"])
        assert code == 2
        assert doc == {"error": {"type": "DomainError", "message": "seed must be nonnegative"}}
        monkeypatch.setenv("LERCHINT_SEED", "-1")
        code, doc = run_json(capsys, argv)
        assert code == 2
        assert doc == {"error": {"type": "DomainError", "message": "seed must be nonnegative"}}


_VERIFY_SYM = ["verify", "--theorem", "t3-sym", "--m", "2", "--z", "0.5", "--u", "1.3"]
_SMALL_QMC = ["--qmc", "--qmc-points", "1024", "--qmc-replicates", "4"]
_REPORT_KEYS = {"spec", "rhs", "lhs_reduced", "abs_gap_reduced", "rel_gap_reduced", "tol",
                "cancellation_flagged", "pass", "lhs_qmc"}


def _is_cplx(obj) -> bool:
    return isinstance(obj, dict) and set(obj) == {"re", "im"} and all(
        type(v) is float for v in obj.values())


def _check_report_body(doc: dict) -> None:
    assert set(doc["spec"]) == {"m", "family", "exponents", "z", "s"}
    assert type(doc["spec"]["m"]) is int and type(doc["spec"]["family"]) is str
    assert all(map(_is_cplx, doc["spec"]["exponents"]))
    assert _is_cplx(doc["spec"]["z"]) and _is_cplx(doc["spec"]["s"]) and _is_cplx(doc["rhs"])
    assert set(doc["lhs_reduced"]) == {"value", "abs_err", "nodes"}
    assert _is_cplx(doc["lhs_reduced"]["value"]) and type(doc["lhs_reduced"]["nodes"]) is int
    for value in (doc["abs_gap_reduced"], doc["rel_gap_reduced"], doc["tol"],
                  doc["lhs_reduced"]["abs_err"]):
        assert type(value) is float
    assert type(doc["cancellation_flagged"]) is bool and type(doc["pass"]) is bool


class TestJsonFormat:
    """The keys and value types of every JSON document: an encoder change must keep them."""

    def test_report_when_qmc_ran(self, capsys):
        code, doc = run_json(capsys, _VERIFY_SYM + ["--s", "1"] + _SMALL_QMC)
        assert code == 0
        assert set(doc) == _REPORT_KEYS | {"qmc_sigma_gap"}
        _check_report_body(doc)
        assert set(doc["lhs_qmc"]) == {"estimate", "std_err", "points", "replicates", "seed"}
        assert _is_cplx(doc["lhs_qmc"]["estimate"]) and type(doc["lhs_qmc"]["std_err"]) is float
        assert all(type(doc["lhs_qmc"][k]) is int for k in ("points", "replicates", "seed"))
        assert type(doc["qmc_sigma_gap"]) is float

    def test_report_when_qmc_skipped(self, capsys):
        code, doc = run_json(capsys, _VERIFY_SYM + ["--s", "-0.5"] + _SMALL_QMC)
        assert code == 0
        assert set(doc) == _REPORT_KEYS | {"qmc_skip_reason"}
        _check_report_body(doc)
        assert doc["lhs_qmc"] is None
        assert doc["qmc_skip_reason"].startswith("Re s = -0.5 < 0")

    def test_report_without_qmc(self, capsys):
        code, doc = run_json(capsys, _VERIFY_SYM + ["--s", "1"])
        assert code == 0
        assert set(doc) == _REPORT_KEYS | {"qmc_skip_reason"}
        assert doc["lhs_qmc"] is None and doc["qmc_skip_reason"] is None

    def test_batch_error_report(self):
        # Phi(1, 0.96, 2) has no convergent series: the closed form raises
        bad = IntegrandSpec(3, "f-kernel", (2.0, 1.0), 1.0, -1.04)
        doc = json.loads(json.dumps(verify_batch([bad])[0].to_json_dict()))
        assert set(doc) == _REPORT_KEYS | {"qmc_skip_reason", "error"}
        _check_report_body(doc)
        assert doc["error"].startswith("DomainError: ")
        assert doc["pass"] is False and doc["lhs_qmc"] is None and doc["qmc_skip_reason"] is None

    def test_phi_document(self, capsys):
        code, doc = run_json(capsys, ["phi", "--z", "0.5", "--s", "2", "--u", "1.3"])
        assert code == 0
        assert set(doc) == {"value", "abs_err", "method", "work"}
        assert _is_cplx(doc["value"]) and type(doc["abs_err"]) is float
        assert doc["method"] == "direct-series" and type(doc["work"]) is int

    def test_reduce_evaluate_document(self, capsys):
        code, doc = run_json(
            capsys,
            ["reduce", "--family", "symmetric", "--m", "2", "--z", "0.5", "--s", "1",
             "--u", "1.5", "--evaluate"],
        )
        assert code == 0
        assert set(doc) == {"prefactor", "terms", "value", "abs_err", "nodes"}
        assert type(doc["prefactor"]) is float
        (term,) = doc["terms"]
        assert set(term) == {"coeff", "w", "p", "z"} and all(map(_is_cplx, term.values()))
        assert term["coeff"] == {"re": 1.0, "im": 0.0}  # a real coefficient is still complex
        assert _is_cplx(doc["value"]) and type(doc["abs_err"]) is float
        assert type(doc["nodes"]) is int

    def test_text_mode_lines(self, capsys):
        code, out = run_cli(capsys, ["--output", "text", "phi", "--z", "0", "--s", "2", "--u", "1"])
        assert code == 0
        assert set(out.splitlines()) == {
            "value = 1.0 + 0.0i", "abs_err = 4.440892098500626e-16",
            "method = 'direct-series'", "work = 1"}
        code, out = run_cli(capsys, ["--output", "text"] + _VERIFY_SYM + ["--s", "1"] + _SMALL_QMC)
        assert code == 0
        assert {line.split(" = ")[0] for line in out.splitlines()} == {
            "spec:", "  m", "  family", "  exponents: [1 entries]", "    [0]", "      re",
            "      im", "  z", "  s", "rhs", "lhs_reduced:", "  value", "  abs_err", "  nodes",
            "abs_gap_reduced", "rel_gap_reduced", "tol", "cancellation_flagged", "pass",
            "lhs_qmc:", "  estimate", "  std_err", "  points", "  replicates", "  seed",
            "qmc_sigma_gap"}
