import json

from lagspec.cli import main

LAM0_EXPR = "[3;3,3,2,1,(1,2)]+[0;2,1,(1,2)]"
A0_TEXT = "<(2,1) | 1,2,3,3*,3,2,1 | (1,2)>"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", LAM0_EXPR, "--digits", "7")
    assert code == 0
    assert out.strip() == "(62976-1498*sqrt(3))/16357 ≈ 3.6914708"


def test_eval_structured(capsys):
    code, out, _ = run(capsys, "eval", LAM0_EXPR, "--structured")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "(62976-1498*sqrt(3))/16357"
    assert rec["decimal"] == "3.6914708"
    assert rec["terms"] == [{"a": 62976, "b": -1498, "c": 16357, "d": 3}]


def test_eval_deterministic(capsys):
    _, out1, _ = run(capsys, "eval", LAM0_EXPR)
    _, out2, _ = run(capsys, "eval", LAM0_EXPR)
    assert out1 == out2


def test_lambda(capsys):
    code, out, _ = run(capsys, "lambda", A0_TEXT, "--index", "0", "--digits", "5")
    assert code == 0
    assert out.startswith("(246+sqrt(3))/69 ≈ 3.59032")
    code, out, _ = run(capsys, "lambda", A0_TEXT, "--index", "1", "--digits", "7")
    assert out.startswith("(62976-1498*sqrt(3))/16357")


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "[0;(1,2)]", "--max-terms", "50")
    assert code == 0 and out.strip() == "[0;(1,2)]"
    code, out, _ = run(capsys, "expand", "1/3")
    assert code == 0 and out.strip() == "[0;3]"


def test_sup_certified(capsys):
    code, out, _ = run(capsys, "sup", A0_TEXT, "--structured")
    assert code == 0
    rec = json.loads(out)
    assert rec["attained"] is True
    assert rec["attaining_indices"] == [-1, 1]
    assert rec["status"] == "certified"
    assert rec["sup"] == "(62976-1498*sqrt(3))/16357"


def test_sup_inconclusive_exit_2(capsys):
    code, out, _ = run(capsys, "sup", A0_TEXT, "--max-window", "1")
    assert code == 2
    assert "inconclusive" in out


def test_limsup(capsys):
    code, out, _ = run(capsys, "limsup", A0_TEXT, "--digits", "6")
    assert code == 0
    assert out.strip() == "2*sqrt(3) ≈ 3.464102"


def test_certify_pattern_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "certify-pattern", "3,1", "--site", "0",
        "--threshold", LAM0_EXPR, "--alphabet-max", "3", "--depth", "20",
    )
    assert code == 0 and "certified" in out
    code, out, _ = run(
        capsys,
        "certify-pattern", "2,2", "--site", "0", "--threshold", LAM0_EXPR, "--depth", "20",
    )
    assert code == 2 and "not separated" in out


def test_certify_pattern_structured(capsys):
    code, out, _ = run(
        capsys,
        "certify-pattern", "3,2,2", "--site", "0", "--threshold", LAM0_EXPR,
        "--forbid", "1,3;3,1", "--depth", "25", "--structured",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["certified"] is True
    assert rec["pattern"] == [3, 2, 2]
    assert rec["forbidden"] == [[1, 3], [3, 1]]
    num, den = rec["lower"].split("/")
    assert int(den) > 0


def test_necessity(capsys):
    code, out, _ = run(capsys, "necessity", "--threshold", "3691/1000", "--window", "9", "--depth", "15")
    assert code == 0
    assert "exceptions: 0" in out


def test_necessity_failing_threshold(capsys):
    code, out, _ = run(
        capsys, "necessity", "--threshold", "3.83", "--window", "7", "--depth", "10", "--forbid", "",
    )
    assert code == 2
    assert "exception" in out


def test_audit(capsys):
    code, out, _ = run(capsys, "audit-alpha0", "--blocks", "4", "--start", "12")
    assert code == 0
    assert "clean" in out


def test_negative_depth_and_guard_exit_1(capsys):
    for argv in (
        ["certify-pattern", "3,1", "--threshold", "3", "--depth", "-3"],
        ["necessity", "--threshold", "3691/1000", "--depth", "-3"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and "depth" in err
    code, _, err = run(capsys, "audit-alpha0", "--guard", "-5")
    assert code == 1 and "guard" in err


def test_depth_1200_runs_without_recursion(capsys):
    for argv in (
        ["certify-pattern", "3,1", "--threshold", LAM0_EXPR, "--depth", "1200"],
        ["necessity", "--threshold", "3691/1000", "--window", "9", "--depth", "1200"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0 and "Traceback" not in err


def test_surgery(capsys):
    code, out, _ = run(capsys, "surgery", "2,1,2,1,3", "--n1", "1", "--n2", "3")
    assert code == 0
    assert "c1: 2,1,3" in out and "c2: 2,1,2,1,2,1,3" in out


def test_construct(capsys):
    code, out, _ = run(capsys, "construct", "a0")
    assert code == 0 and out.strip() == A0_TEXT
    code, out, _ = run(capsys, "construct", "alpha0", "--blocks", "1")
    assert out.strip() == "[0;2,1,1,2,3,3,3,2,1,1,2]"


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "eval", "[0;1,(])")
    assert code == 1
    assert "syntax error" in err and "line 1" in err


def test_precondition_error_exit_1(capsys):
    code, _, err = run(capsys, "surgery", "1,2,3", "--n1", "1", "--n2", "2")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "expand", "[0;(1,2)]+[0;(1,3)]")
    assert code == 1


def test_bad_flag_exit_1(capsys):
    code, _, err = run(capsys, "eval")
    assert code == 1
