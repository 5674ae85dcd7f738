import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from triality import automorphisms, cli, invariants
from triality.cli import main
from triality.invariants import (canonical_block_element, invariant_vector,
                                 sigma_transform_invariants)
from triality.so8 import GENERATORS, Generator, So8Element, random_element


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "triality.cli", *args],
                          capture_output=True)


def write_element(tmp_path, element, name="elem.json", encoding="both"):
    path = tmp_path / name
    path.write_text(json.dumps(element.to_json(encoding)))
    return str(path)


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        assert main(["verify", "--samples", "2", "--suite", "octonion"]) == 0
        out = capsys.readouterr().out
        assert "PASS octonion.table_rules" in out
        assert not any(line.startswith(" ") for line in out.splitlines())

    def test_json_report_shape(self, capsys):
        assert main(["verify", "--samples", "2", "--suite", "so8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "verify"
        assert payload["status"] == "pass"
        assert {e["check_id"] for e in payload["checks"]} == {
            "so8.dimension_roundtrip", "so8.quadruple_partition",
            "so8.bracket_antisymmetry"}

    def test_corrupt_constant_exits_one(self, capsys):
        code = main(["verify", "--samples", "1", "--suite", "triality",
                     "--corrupt-constant", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "fail"
        bracket = [e for e in payload["checks"]
                   if e["check_id"] == "triality.bracket_preservation"][0]
        assert "counterexample" in bracket

    def test_text_failures_print_their_witnesses(self, capsys):
        argv = ["verify", "--suite", "triality", "--corrupt-constant", "--samples", "1"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert main(argv + ["--json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        expected = {e["check_id"]: "  " + json.dumps(e.get("counterexample", e.get("error")),
                                                     sort_keys=True)
                    for e in checks
                    if e["status"] == "fail" and ("counterexample" in e or "error" in e)}
        witnesses = {lines[i - 1].split()[1]: line
                     for i, line in enumerate(lines) if line.startswith("  ")}
        assert witnesses == expected
        assert {"triality.block_identities", "triality.order_three",
                "triality.bracket_preservation", "triality.fixed_dims"} <= set(expected)

    def test_text_prints_the_witness_of_a_failing_discrepancy(self, capsys, monkeypatch):
        # a candidate equal to the derived form leaves nothing to tell apart
        monkeypatch.setattr(invariants, "candidate_eta4_coefficient",
                            lambda v: invariants.newton_coefficients(v).e2)
        argv = ["verify", "--suite", "invariants", "--samples", "1"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert main(argv + ["--json"]) == 1
        entry = [e for e in json.loads(capsys.readouterr().out)["checks"]
                 if e["check_id"] == "invariants.eta4_coefficient_discrepancy"][0]
        assert entry["status"] == "fail" and "counterexample" not in entry
        at = lines.index("FAIL invariants.eta4_coefficient_discrepancy")
        assert lines[at + 1] == "  " + json.dumps(entry["witness"], sort_keys=True)

    def test_usage_errors_exit_two(self):
        assert run_cli("verify", "--samples", "0").returncode == 2
        assert run_cli("verify", "--samples", "nope").returncode == 2
        assert run_cli("frobnicate").returncode == 2
        assert run_cli("verify", "--suite", "nonsense").returncode == 2

    def test_integer_option_messages(self, capsys):
        for argv, message in ((["verify", "--samples", "0"], "must be >= 1, got 0"),
                              (["verify", "--seed", "-1"], "must be >= 0, got -1"),
                              (["verify", "--bound", "x"], "not an integer: 'x'")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_byte_identical_reports(self):
        args = ("verify", "--samples", "3", "--seed", "42", "--suite", "invariants",
                "--json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout


class TestEvalCommand:
    def test_zero_matrix(self, tmp_path, capsys):
        path = write_element(tmp_path, So8Element.zero(), encoding="matrix")
        assert main(["eval", "--input", path]) == 0
        out = capsys.readouterr().out
        for key in ("p1", "p2", "p3", "pf", "e1", "e2", "e3", "e4"):
            assert f"{key} = 0" in out

    def test_block_values(self, tmp_path, capsys):
        path = write_element(tmp_path, canonical_block_element([1, 2, 3, 4]))
        assert main(["eval", "--input", path, "--json"]) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        assert values == {"p1": "-60", "p2": "708", "p3": "-9780", "pf": "24",
                          "e1": "30", "e2": "273", "e3": "820", "e4": "576"}

    def test_non_antisymmetric_exits_one(self, tmp_path, capsys):
        rows = [["0"] * 8 for _ in range(8)]
        rows[0][1] = "1"
        rows[1][0] = "1"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": rows}))
        assert main(["eval", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "(0,1)" in err and "(1,0)" in err

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["eval", "--input", str(path)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["eval", "--input", str(tmp_path / "absent.json")]) == 2

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["eval", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    @pytest.mark.parametrize("text", ["[" * 100000, "[" + "1" * 5000 + "]"],
                             ids=["nested_past_recursion_limit", "integer_past_digit_limit"])
    def test_json_the_parser_gives_up_on_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(["eval", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed JSON in {path}: ")

    @pytest.mark.parametrize("extra", [{"extra": 1}, {"matirx": [["0"] * 8] * 8}],
                             ids=["extra", "misspelled_matrix"])
    def test_unknown_field_exits_one(self, tmp_path, capsys, extra):
        obj = {**random_element(1).to_json("coeffs"), **extra}
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(obj))
        (key,) = extra
        for command in ("eval", "sigma"):
            assert main([command, "--input", str(path)]) == 1
            err = capsys.readouterr().err
            assert f"invalid element in {path}: unknown field(s) {key!r}" in err

    def test_mismatched_encodings_exit_one(self, tmp_path):
        obj = random_element(1).to_json("coeffs")
        obj.update(random_element(2).to_json("matrix"))
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(obj))
        assert main(["eval", "--input", str(path)]) == 1

    @pytest.mark.parametrize("entry", ["2/4", 3, "1e3", "1.5", " 5 ", "-0", "007", "3/01",
                                       "-0/1", "5/1"],
                             ids=["not_lowest_terms", "json_number", "exponent",
                                  "decimal", "padded", "negative_zero", "leading_zeros",
                                  "padded_denominator", "negative_zero_fraction",
                                  "unit_denominator"])
    @pytest.mark.parametrize("field", ["coeffs", "matrix"])
    def test_non_canonical_rational_exits_one(self, tmp_path, capsys, field, entry):
        if field == "coeffs":
            obj = {"coeffs": [entry] + ["0"] * 27}
        else:
            rows = [["0"] * 8 for _ in range(8)]
            rows[0][1] = entry
            obj = {"matrix": rows}
        path = tmp_path / "noncanonical.json"
        path.write_text(json.dumps(obj))
        for command in ("eval", "sigma"):
            assert main([command, "--input", str(path)]) == 1
            err = capsys.readouterr().err
            assert f"invalid element in {path}: {entry!r}" in err


class TestSigmaCommand:
    def test_power_three_is_identity(self, tmp_path, capsys):
        elem = random_element(5)
        path = write_element(tmp_path, elem)
        assert main(["sigma", "--input", path, "--power", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output"] == payload["input"]
        assert payload["effective_power"] == 0

    def test_power_zero_is_identity(self, tmp_path, capsys):
        elem = random_element(6)
        path = write_element(tmp_path, elem)
        assert main(["sigma", "--input", path, "--power", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output"] == payload["input"]

    def test_generator_image(self, tmp_path, capsys):
        elem = So8Element.from_generator(Generator(0, 1))
        path = write_element(tmp_path, elem, encoding="coeffs")
        assert main(["sigma", "--input", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        coeffs = payload["output"]["coeffs"]
        assert coeffs[0] == "-1/2"
        assert coeffs.count("1/2") == 3

    def test_eval_sigma_consistency(self, tmp_path, capsys):
        elem = random_element(7)
        path = write_element(tmp_path, elem)
        assert main(["sigma", "--input", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = sigma_transform_invariants(invariant_vector(elem))
        assert payload["invariants_after"] == expected.to_json()
        assert payload["invariants_before"] == invariant_vector(elem).to_json()

    def test_negative_power_rejected(self):
        assert run_cli("sigma", "--input", "x.json", "--power", "-1").returncode == 2


class TestSharedParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        path = write_element(tmp_path, random_element(8))
        assert main(["sigma", "--input", path, "--power", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["power"] == 2
        with pytest.raises(SystemExit) as exc:
            main(["sigma", "--input", path, "--power", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["sigma", "--input", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["power"], payload["effective_power"]) == (1, 1)


class TestFixedCommand:
    def test_structure(self, capsys):
        assert main(["fixed", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        g2 = payload["order3_fixed"]
        so7 = payload["involution_fixed"]
        assert (g2["dim"], g2["rank"], g2["killing_nondegenerate"]) == (14, 2, True)
        assert (so7["dim"], so7["rank"], so7["killing_nondegenerate"]) == (21, 3, True)
        assert len(g2["basis_coeffs"]) == 14
        assert len(so7["basis_coeffs"]) == 21

    @pytest.mark.parametrize("tag, field, value", [
        ("g2", "killing_nondegenerate", False),
        ("so7", "killing_nondegenerate", False),
        ("g2", "rank", 3),
        ("so7", "rank", 2),
    ])
    def test_failed_identification_exits_1(self, tag, field, value, monkeypatch, capsys):
        identify = automorphisms.identify_fixed_algebra

        def wrong(sub):
            structure = identify(sub)
            return {**structure, field: value} if sub.tag == tag else structure

        monkeypatch.setattr(automorphisms, "identify_fixed_algebra", wrong)
        for argv in (["fixed"], ["fixed", "--json"]):
            assert main(argv) == 1
            assert capsys.readouterr().out


class TestDumpCommand:
    def test_contents(self, capsys):
        assert main(["dump", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quadruples"][0]["generators"] == \
            ["G(0,1)", "G(2,4)", "G(3,7)", "G(5,6)"]
        assert payload["t_matrix"][1] == ["3/8", "-1/2", "-12", "0"]
        assert payload["t_matrix_squared"][1] == ["3/8", "-1/2", "12", "0"]
        assert len(payload["g2_basis"]) == 14
        assert len(payload["so7_basis"]) == 21
        assert len(payload["order3_full"]) == 28
        assert payload["octonion_table"][5][2] == "e3"
        assert len(payload["generators"]) == 28

    def test_deterministic(self):
        first = run_cli("dump", "--json")
        second = run_cli("dump", "--json")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


# exit code and sha256 of the stdout of `triality <argv>`, by test id. These
# outputs are part of the contract: a refactor must leave them byte-identical,
# and a deliberate change to them updates the digest here, its one copy.
GOLDEN_OUTPUTS = {
    "dump-text": (("dump",), 0,
                  "6b6f2f6518908a34ee4f9616874203b9c36e4be84ffc97668e7aecb2fbf216d6"),
    "dump": (("dump", "--json"), 0,
             "422e9f102e67077b1f4ab52c7e6cab2c2c91a739674e07e0ec0d98488ca21994"),
    "fixed-text": (("fixed",), 0,
                   "b744e08f3be59bd719bdd1cdc64690216a4cfcbb5380ceedd510b79d7d4be6da"),
    "fixed": (("fixed", "--json"), 0,
              "acc26a6b8345bcac4ea5b6761a69417e15ac95ae7f26767f6857ebcbb884dfba"),
    "verify": (("verify", "--json", "--samples", "3", "--seed", "42"), 0,
               "8165e9b6b576cfd7225740a279a55b566fc465c6b913cebc744b5802762ee347"),
    "verify-text": (("verify",), 0,
                    "998b741f5e65139c4b1dbe32cd1e5babe4bf837ff1a430adc000eee28b3ad339"),
    "verify-default": (("verify", "--json"), 0,
                       "81efa419307b03eea4355a58fdb2910f2d91b1fb231ccaabda341ec6f0e5a9ee"),
    "corrupt-constant": (("verify", "--json", "--corrupt-constant"), 1,
                         "3b4d535411e68fa4b5790f2906d1a4f3d2b06a450c16804fbc1d06d0c2d2f3fa"),
    "corrupt-constant-text": (("verify", "--corrupt-constant"), 1,
                              "ac36071ee04d4c866044ac445cc3499b429c110fdd6207b282a79d9a0be654cd"),
}


# sha256 of the stdout of `triality <command> --input F --json` for the
# rational element written by `_rational_element`
RATIONAL_GOLDEN_SHA256 = {
    "eval": "41658431cd36c7b0e1cecb3ac4f0402bb2a445ca1a79977f46ce72b8e3bf87a4",
    "sigma": "7089ce0ba93baa3633acab8263d74764fc72d2c381011f6b34a1743cbce6e190",
}


# the same for `_singular_rational_element`, whose matrix has a zero last row
# and column, so that e4 = pf = 0 and the determinant finds no pivot
SINGULAR_RATIONAL_GOLDEN_SHA256 = {
    "eval": "6595c8268fc1e67717db3b151be281d20e5ba85d7400a22cebd2d5ed7fffe877",
    "sigma": "ae70b5fb63108a8985f16ebe1b44e57b1d7581bcbbf7f1bb0d957e7fbbf7d848",
}


def _rational_coeffs():
    """Coefficients p/q with |p| <= 10^6 and q <= 10^3, drawn independently."""
    rng = random.Random(2009)
    return [str(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3)))
            for _ in range(28)]


def _write_coeffs(tmp_path, coeffs):
    path = tmp_path / "rational.json"
    path.write_text(json.dumps({"coeffs": coeffs}))
    return str(path)


def _rational_element(tmp_path):
    return _write_coeffs(tmp_path, _rational_coeffs())


def _singular_rational_element(tmp_path):
    """`_rational_element` with every generator G(i, 7) at zero."""
    return _write_coeffs(tmp_path, ["0" if g.j == 7 else c
                                    for g, c in zip(GENERATORS, _rational_coeffs())])


class TestGoldenOutput:
    @pytest.mark.parametrize("test_id", sorted(GOLDEN_OUTPUTS))
    def test_output_is_byte_identical(self, test_id, capsys):
        argv, code, golden = GOLDEN_OUTPUTS[test_id]
        assert main(list(argv)) == code
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == golden

    @pytest.mark.parametrize("command", sorted(RATIONAL_GOLDEN_SHA256))
    def test_rational_element_output_is_byte_identical(self, command, tmp_path, capsys):
        assert main([command, "--input", _rational_element(tmp_path), "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == RATIONAL_GOLDEN_SHA256[command]

    @pytest.mark.parametrize("command", sorted(SINGULAR_RATIONAL_GOLDEN_SHA256))
    def test_singular_rational_element_output_is_byte_identical(self, command, tmp_path,
                                                                capsys):
        assert main([command, "--input", _singular_rational_element(tmp_path), "--json"]) == 0
        out = capsys.readouterr().out
        if command == "eval":
            values = json.loads(out)["values"]
            assert (values["e4"], values["pf"]) == ("0", "0")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == SINGULAR_RATIONAL_GOLDEN_SHA256[command]

    def test_failing_invariants_report_is_byte_identical(self, capsys):
        # pins the counterexample witnesses of the failing sampled checks
        argv = ["verify", "--json", "--samples", "3", "--suite", "invariants",
                "--corrupt-constant"]
        assert main(argv) == 1
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == "7d8b2892ecfaf25d996d79ee41d5670e5b6b18f10a09b559bf01174264ddc167"

    def test_failing_triality_report_is_byte_identical(self, capsys):
        # pins the violation count, the violating pairs and the counterexample
        # of the failing bracket-preservation check, and the block witness
        argv = ["verify", "--json", "--samples", "3", "--suite", "triality",
                "--corrupt-constant"]
        assert main(argv) == 1
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == "1161c556d2441bc5beca12e4adc618f183abc1e2e0821d8502ef2be108d22448"
