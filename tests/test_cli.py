"""Command-line interface: outputs, exit codes, certificate files."""

import json

import pytest

from conic2.cli import main
from conic2.conic import ProjPoint, classify_fiber, load_spec
from conic2.gf2k import field_new

from conftest import CORPUS, DATA


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_discriminant_command(capsys):
    code, out, _ = run(capsys, "discriminant", "--spec", str(CORPUS / "ex1.json"))
    assert code == 0
    assert "Delta = x^6*y*z + x^3*y^5 + x^3*z^5 + y^4*z^4" in out
    assert "(x^3*z + y^4)" in out and "(x^3*y + z^4)" in out


def test_discriminant_auel_four_factors(capsys):
    code, out, _ = run(capsys, "discriminant", "--spec", str(CORPUS / "ex5.json"))
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("factors:")][0]
    assert line.count("(") == 4


def test_discriminant_with_claimed_factors(capsys, tmp_path):
    factors = tmp_path / "factors.json"
    factors.write_text(json.dumps(["x^3*z + y^4", "x^3*y + z^4"]))
    code, out, _ = run(
        capsys, "discriminant", "--spec", str(CORPUS / "ex1.json"), "--factors", str(factors)
    )
    assert code == 0


def test_degree_mismatch_spec_exits_two(capsys, tmp_path):
    data = json.loads((CORPUS / "ex1.json").read_text())
    data["sections"]["ab"] = "x^2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "discriminant", "--spec", str(bad))
    assert code == 2
    assert "ab" in err


def test_classify_command(capsys):
    for point, expected in (("0:1:0", "DoubleLine"), ("1:0:0", "Cross"), ("0:1:1", "Smooth")):
        code, out, _ = run(
            capsys, "classify", "--spec", str(CORPUS / "ex1.json"), "--point", point
        )
        assert code == 0
        assert out.strip() == expected


def test_classify_over_extension(capsys):
    code, out, _ = run(
        capsys, "classify", "--spec", str(CORPUS / "ex3.json"), "--point", "0:1:F4:2"
    )
    assert code == 0
    assert out.strip() == "DoubleLine"


def test_classify_embeds_into_the_lcm_field(capsys, tmp_path):
    # spec over F_{2^8}, point over F_{2^12}: the common field is F_{2^24}
    data = json.loads((CORPUS / "ex1.json").read_text())
    data["field_degree"] = 8
    path = tmp_path / "ex1_f256.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "classify", "--spec", str(path), "--point", "F4096:2:1:0")
    assert code == 0, err
    expected = classify_fiber(load_spec(str(path)), ProjPoint.parse("F4096:2:1:0", field_new(24)))
    assert out.strip() == str(expected)


def test_verify_all_pass_exit_zero(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "verify", "--spec", str(CORPUS / "ex1.json"), "--cert-out", str(cert_path)
    )
    assert code == 0
    assert "all hypotheses hold" in out
    data = json.loads(cert_path.read_text())
    assert data["verdict"]["all_pass"] is True


def test_verify_failing_example_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--spec", str(CORPUS / "rem_double_line.json"))
    assert code == 1
    assert "[FAIL] h3_transversal_crosses_nodes" in out


def test_nonflat_spec_over_f65536_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--spec", str(DATA / "nonflat_f65536.json"))
    assert code == 1
    assert "bundle not flat" in out


def test_component_inside_sigma_over_f65536_exits_one(capsys):
    # Valid input with a component inside Sigma and no double-line witness:
    # a failing verdict (exit 1), not an input error (exit 2).
    code, out, _ = run(capsys, "verify", "--spec", str(DATA / "inside_sigma_f65536.json"))
    assert code == 1
    assert "1 of 3 components certified Artin-Mumford" in out


def test_verify_corpus_matches_profiles(capsys):
    code, out, _ = run(capsys, "verify", "--corpus")
    assert code == 0
    assert out.count("matches the expected profile") == 6


def test_verify_without_spec_or_corpus(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_missing_file_exits_two(capsys):
    code, _, _ = run(capsys, "discriminant", "--spec", "no_such_file.json")
    assert code == 2


EX1 = json.loads((CORPUS / "ex1.json").read_text())


@pytest.mark.parametrize(
    "option, content",
    [
        ("--spec", [EX1]),
        ("--spec", {k: v for k, v in EX1.items() if k != "degree_vector"}),
        ("--spec", {**EX1, "sections": {**EX1["sections"], "ab": 5}}),
        ("--factors", {"factor": ["x^3*z + y^4", "x^3*y + z^4"]}),
        ("--factors", 5),
        ("--factors", [1]),
        ("--spec", None),
    ],
    ids=["spec-list", "spec-no-degree-vector", "spec-numeric-section",
         "factors-dict-without-factors", "factors-number", "factors-numeric-entry",
         "spec-directory"],
)
def test_malformed_input_file_exits_two(capsys, tmp_path, option, content):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(content))
    if option == "--spec":
        argv = ["discriminant", "--spec", str(path)]
    else:
        argv = ["discriminant", "--spec", str(CORPUS / "ex1.json"), "--factors", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("invalid input:")


@pytest.mark.parametrize("field", ["0", "65"])
def test_classify_field_out_of_range_exits_two(capsys, field):
    code, out, err = run(
        capsys, "classify", "--spec", str(CORPUS / "ex1.json"), "--point", "0:1:0", "--field", field
    )
    assert code == 2 and out == ""
    assert "outside 1..64" in err


def test_search_smoke(capsys, tmp_path):
    out_path = tmp_path / "hits.json"
    code, out, _ = run(
        capsys, "search", "--budget", "2", "--cert-out", str(out_path)
    )
    assert code == 0
    assert "tried 2 candidates" in out
    hits = json.loads(out_path.read_text())
    assert isinstance(hits, list)


def test_cert_outputs_reparse_as_inputs(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "verify", "--spec", str(CORPUS / "ex4.json"), "--cert-out", str(cert_path))
    data = json.loads(cert_path.read_text())
    spec_file = tmp_path / "respec.json"
    spec_file.write_text(json.dumps(data["spec"]))
    again = load_spec(str(spec_file))
    assert again == load_spec(str(CORPUS / "ex4.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--spec", str(CORPUS / "ex1.json"), "--cert-out", "{dir}"],
        ["search", "--budget", "1", "--cert-out", "{dir}"],
        ["verify", "--corpus", "--cert-out", "{file}"],
    ],
    ids=["verify-spec-into-directory", "search-into-directory", "corpus-into-file"],
)
def test_unwritable_cert_out_exits_two(capsys, tmp_path, argv):
    (tmp_path / "file.json").write_text("{}")
    paths = {"{dir}": str(tmp_path), "{file}": str(tmp_path / "file.json")}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2
    assert "cannot write " + str(tmp_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("field_degree", 1.9),
        ("field_degree", True),
        ("field_degree", "1"),
        ("degree_vector", [0.5, 1, 3]),
        ("degree_vector", [False, 1, 3]),
        ("value_degree", 0.0),
    ],
    ids=["field-float", "field-bool", "field-string", "vector-float", "vector-bool",
         "value-float"],
)
def test_non_integer_degrees_exit_two(capsys, tmp_path, key, value):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**EX1, key: value}))
    code, out, err = run(capsys, "verify", "--spec", str(path))
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and "integers" in err
