import hashlib
import json
import subprocess
import sys

import pytest

from triality.cli import main
from triality.invariants import (canonical_block_element, invariant_vector,
                                 sigma_transform_invariants)
from triality.so8 import Generator, So8Element, random_element


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

    def test_mismatched_encodings_exit_one(self, tmp_path):
        obj = random_element(1).to_json("coeffs")
        obj.update(random_element(2).to_json("matrix"))
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(obj))
        assert main(["eval", "--input", str(path)]) == 1


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


# sha256 of the stdout of `triality <argv>`. These outputs are part of the
# contract: a refactor must leave them byte-identical, and a deliberate change
# to them updates the digest here.
GOLDEN_SHA256 = {
    ("dump", "--json"):
        "422e9f102e67077b1f4ab52c7e6cab2c2c91a739674e07e0ec0d98488ca21994",
    ("fixed", "--json"):
        "acc26a6b8345bcac4ea5b6761a69417e15ac95ae7f26767f6857ebcbb884dfba",
    ("verify", "--json", "--samples", "3", "--seed", "42"):
        "17edb59f7964529fb9e7930a5b732c3e29f60e0178cf0daf82a204778340d02b",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256), ids=lambda argv: argv[0])
    def test_output_is_byte_identical(self, argv, capsys):
        assert main(list(argv)) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_SHA256[argv]
