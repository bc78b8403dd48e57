"""Command line surface: outputs, exit codes, determinism."""

import json

import pytest

from hatloop.birkhoff import LoopMatrix
from hatloop.cli import main
from hatloop.germs import LaurentGerm
from hatloop.leaves import qdiff_defect


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bracket(capsys):
    code, out = run(capsys, "bracket", "h[1]", "h[-1]")
    assert code == 0
    assert out == "G^2 - G^-2\n"


def test_bracket_zero(capsys):
    code, out = run(capsys, "bracket", "G", "L * h[3]")
    assert code == 0
    assert out.strip() == "0"


def test_bracket_sl2(capsys):
    code, out = run(capsys, "bracket", "k", "xm[0]", "--algebra", "sl2")
    assert code == 0
    assert out.strip() == "2 * k * xm[0]"


def test_parse_error_exit_2(capsys):
    assert run(capsys, "bracket", "h[", "h[-1]")[0] == 2


def test_domain_error_exit_3(capsys):
    assert run(capsys, "frobenius", "h[1]", "--ell", "4")[0] == 3


def test_frobenius(capsys):
    code, out = run(capsys, "frobenius", "h[2]", "--ell", "3")
    assert code == 0
    assert out.strip() == "3 * h[6]"


def test_hopf(capsys):
    code, out = run(capsys, "hopf", "h[2]")
    assert code == 0
    doc = json.loads(out)
    assert doc["antipode"] == "-h[2]"
    assert "(x)" in doc["coproduct"]


def test_factorize_scalar(capsys, tmp_path):
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(
        {"n_min": -1, "coeffs": [[0.2, 0.0], [1.5, 0.0], [0.3, 0.0]],
         "radius": 1.0}))
    code, out = run(capsys, "factorize", str(loop), "--window=-8:8")
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == 0
    assert doc["f_minus"]["coeffs"][-1] == [1.0, 0.0]  # value 1 at infinity


def test_factorize_deterministic(capsys, tmp_path):
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(
        {"n_min": 0, "coeffs": [[2.0, 0.3], [0.4, -0.1]], "radius": 1.0}))
    _, out1 = run(capsys, "factorize", str(loop))
    _, out2 = run(capsys, "factorize", str(loop))
    assert out1 == out2


def test_factorize_missing_file(capsys, tmp_path):
    assert run(capsys, "factorize", str(tmp_path / "nope.json"))[0] == 2


def test_group_mul_inverse(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(
        {"n": 1, "f": {"n_min": -1, "coeffs": ["1/2", "0", "3"]},
         "lambda": {"unit": "G^2", "log": "0"}, "gamma": "G"}))
    code, out = run(capsys, "group", "inv", str(a))
    assert code == 0
    inv_doc = json.loads(out)
    b = tmp_path / "b.json"
    b.write_text(json.dumps(inv_doc))
    code, out = run(capsys, "group", "mul", str(a), str(b))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 0
    assert doc["f"]["coeffs"] == []


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, _ = run(capsys, "bracket", "h[1]", "h[-1]", "-o", str(target))
    assert code == 0
    assert target.read_text() == "G^2 - G^-2\n"


def test_verify_named_suite(capsys):
    code, out = run(capsys, "verify", "bracket-table")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_unknown_suite(capsys):
    assert run(capsys, "verify", "no-such-suite")[0] == 3


def test_usage_error(capsys):
    assert main(["factorize"]) == 2


def test_nonfinite_coefficient_exit_2(capsys, tmp_path):
    for bad in ("NaN", "Infinity", "-Infinity"):
        loop = tmp_path / "loop.json"
        loop.write_text('{"n_min": 0, "coeffs": [[1.0, 0.0], [%s, 0.0]]}'
                        % bad)
        assert main(["factorize", str(loop)]) == 2
        err = capsys.readouterr().err
        assert "coeffs[1]" in err and "non-finite" in err


def test_missing_field_exit_2(capsys, tmp_path):
    src = tmp_path / "system.json"
    src.write_text(json.dumps({"theta": [16.0, 0.0]}))
    assert main(["qdiff", str(src)]) == 2
    err = capsys.readouterr().err
    assert "missing field 'matrix'" in err
    src.write_text(json.dumps({"n_min": 0}))
    assert main(["factorize", str(src)]) == 2
    assert "missing field 'coeffs'" in capsys.readouterr().err


def test_qdiff_reports_solver_residual(capsys, tmp_path):
    A = LoopMatrix(
        [[LaurentGerm.from_dict({0: 1.5, 1: 0.1, -1: -0.05}),
          LaurentGerm.from_dict({0: 0.05, 1: 0.02})],
         [LaurentGerm.from_dict({0: 0.05, -1: 0.02}),
          LaurentGerm.from_dict({0: -1.2, 2: 0.08})]])
    src = tmp_path / "system.json"
    src.write_text(json.dumps({"matrix": A.to_json(), "theta": [16.0, 0.0]}))
    code, out = run(capsys, "qdiff", str(src), "--tol", "1e-9")
    assert code == 0
    doc = json.loads(out)
    g = LaurentGerm.from_json(doc["g"])
    assert not g.is_zero()
    resid = max(abs(c) for c in qdiff_defect(A, g, 16.0).coeffs)
    assert doc["residual"] == resid <= 1e-9
