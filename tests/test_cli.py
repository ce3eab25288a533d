import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crflag import cli, cralgebra

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_ARGS = (
    "analyze", "--family", "B", "--rank", "3", "--parabolic", "1,3",
    "--cayley", "0,1,0|1,1,1",
)


def test_analyze_golden_json(capsys):
    code, out, _ = run_cli(capsys, *GOLDEN_ARGS, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 3
    assert data["dim_Z"] == 7
    assert data["cr_codim"] == 1
    assert data["orbit_type"] == "cr"
    assert data["minimal"] is True
    assert data["degenerate"] is False
    assert data["c_of_q"] == 2
    assert data["sigma"]["chain"] == ["010", "111"]
    assert len(data["filtration"]) == 4
    assert set(data["filtration"][3]) == {"100", "-001", "-011", "-012", "-112"}
    # lossless round-trip
    assert json.loads(json.dumps(data)) == data


def test_analyze_golden_with_oracle(capsys):
    code, out, _ = run_cli(capsys, *GOLDEN_ARGS, "--format", "json", "--oracle")
    assert code == 0
    assert json.loads(out)["oracle_checked"] is True


def test_analyze_split_is_totally_real(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "B", "--rank", "3", "--parabolic", "1,3", "--split",
    )
    assert code == 0
    assert "orbit_type: totally_real" in out


def test_analyze_sigma_matrix_su21(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "A", "--rank", "2", "--parabolic", "1",
        "--sigma-matrix", "0,1|1,0",
    )
    assert code == 0
    assert "order: 1" in out


def _text_numbers(out):
    fields = {}
    for key in ("dim_Z", "dimR_M", "cr_dim", "cr_codim", "order", "c_of_q"):
        m = re.search(rf"^{key}: (\S+)$", out, re.M)
        if m:
            fields[key] = int(m.group(1))
    return fields


def test_text_and_json_agree_on_numbers(capsys):
    code, text_out, _ = run_cli(capsys, *GOLDEN_ARGS)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *GOLDEN_ARGS, "--format", "json")
    assert code == 0
    data = json.loads(json_out)
    numbers = _text_numbers(text_out)
    assert numbers  # every numeric field present in the text report
    for key, value in numbers.items():
        assert data[key] == value
    # filtration levels agree as sets, level by level
    text_levels = re.findall(r"^  q\(\d+\): (.*)$", text_out, re.M)
    assert [set(level.split()) for level in text_levels] == [
        set(level) for level in data["filtration"]
    ]


def test_analyze_text_golden_snapshot(capsys):
    code, out, _ = run_cli(capsys, *GOLDEN_ARGS)
    assert code == 0
    assert out == (
        "family: B\n"
        "rank: 3\n"
        "parabolic: 1,3\n"
        "sigma: cayley 010|111\n"
        "sigma_matrix: -1,0,0|-1,-1,1|-2,0,1\n"
        "orbit_type: cr\n"
        "dim_Z: 7\n"
        "dimR_M: 13\n"
        "cr_dim: 6\n"
        "cr_codim: 1\n"
        "order: 3\n"
        "degenerate: false\n"
        "c_of_q: 2\n"
        "minimal: true\n"
        "oracle_checked: false\n"
        "filtration:\n"
        "  q(0): 001 100 -001 -010 -100 -011 -110 -012 -111 -112 -122\n"
        "  q(1): 100 -001 -010 -011 -012 -111 -112 -122\n"
        "  q(2): 100 -001 -011 -012 -112 -122\n"
        "  q(3): 100 -001 -011 -012 -112\n"
    )


def test_analyze_degenerate_case_reports_witness(capsys):
    # B3 with a non-maximal parabolic and a hypersurface involution; the
    # chain e1-e2, e1+e2 gives the same involution as the orthogonal but
    # not strongly orthogonal short roots e2, e1 ("0,1,1|1,1,1")
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "B", "--rank", "3", "--parabolic", "1",
        "--cayley", "1,0,0|1,2,2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    if data.get("degenerate"):
        assert data["witness"]
        assert "order" not in data


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", "H", "--rank", "3", "--parabolic", "1", "--split"),
        ("analyze", "--family", "B", "--rank", "1", "--parabolic", "1", "--split"),
        ("analyze", "--family", "B", "--rank", "3", "--parabolic", "9", "--split"),
        ("analyze", "--family", "B", "--rank", "3", "--parabolic", "x", "--split"),
        ("analyze", "--family", "B", "--rank", "3", "--parabolic", "1",
         "--cayley", "1,0"),
        ("analyze", "--family", "B", "--rank", "3", "--parabolic", "1",
         "--cayley", "5,5,5"),
        ("analyze", "--family", "B", "--rank", "3", "--parabolic", "1",
         "--sigma-matrix", "2,0,0|0,2,0|0,0,2"),
        ("analyze", "--family", "B", "--rank", "3", "--parabolic", "1",
         "--sigma-matrix", "1,0|0,1"),
    ],
)
def test_validation_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "chain, code", [("0,1,0|1,1,1", 0), ("0,1,0|0,1,0", 2), ("0,1,1|1,1,1", 2)]
)
def test_cayley_chain_must_be_strongly_orthogonal(capsys, chain, code):
    got, _, err = run_cli(
        capsys, "analyze", "--family", "B", "--rank", "3", "--parabolic", "1,3",
        "--cayley", chain,
    )
    assert got == code
    assert ("--cayley" in err) == (code == 2)


def test_missing_sigma_flag_exits_two(capsys):
    code, _, _ = run_cli(capsys, "analyze", "--family", "B", "--rank", "3")
    assert code == 2


def test_both_sigma_flags_exit_two(capsys):
    code, _, _ = run_cli(
        capsys, "analyze", "--family", "B", "--rank", "3", "--split",
        "--cayley", "0,1,0",
    )
    assert code == 2


def test_example_so7_passes(capsys):
    code, out, _ = run_cli(capsys, "example-so7")
    assert code == 0
    assert "3-nondegenerate" in out


def test_example_so7_detects_corruption(capsys, monkeypatch):
    # the self-test reads the filtration that evaluate computes; this one
    # stops a level early, consistently, so it claims order 2
    real = cralgebra.filtration

    def corrupted(cr):
        result = real(cr)
        return type(result)(
            levels=result.levels[:-1],
            stationary_index=result.stationary_index - 1,
            reached_infty=True,
            kernel_dims=result.kernel_dims[:-1],
        )

    monkeypatch.setattr(cralgebra, "filtration", corrupted)
    code, out, _ = run_cli(capsys, "example-so7")
    assert code == 1
    assert "mismatch" in out


def test_example_so7_truncated_chain_short_of_q_infty_is_internal(capsys, monkeypatch):
    # a chain that stops above q^inf makes the orbit look degenerate; the
    # witness built from its last level is not closed under root addition,
    # so evaluate raises before the self-test compares levels
    real = cralgebra.filtration

    def truncated(cr):
        result = real(cr)
        return type(result)(
            levels=result.levels[:-1],
            stationary_index=result.stationary_index - 1,
            reached_infty=False,
            kernel_dims=result.kernel_dims[:-1],
        )

    monkeypatch.setattr(cralgebra, "filtration", truncated)
    code, out, err = run_cli(capsys, "example-so7")
    assert code == 3
    assert "internal" in err
    assert "mismatch" not in out


def test_survey_text(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--families", "A,B", "--max-rank", "2",
        "--max-cayley-chain", "2", "--oracle-max-rank", "2",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("family")
    assert re.search(r"^rows: \d+$", out, re.M)


def test_survey_json(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--families", "B", "--max-rank", "3",
        "--max-cayley-chain", "2", "--hypersurface-only", "--format", "json",
        "--oracle-max-rank", "0",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows and all(r["cr_codim"] == 1 for r in rows)
    golden = [r for r in rows if r["qr"] == [1, 3] and r["involution"] == "010|111"]
    assert golden and golden[0]["order"] == 3


def test_survey_classical_hypersurfaces_bounded(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--families", "A,B,C,D", "--max-rank", "4",
        "--max-cayley-chain", "3", "--hypersurface-only", "--format", "json",
        "--oracle-max-rank", "0",
    )
    assert code == 0
    rows = json.loads(out)
    finite = [r for r in rows if isinstance(r["order"], int)]
    assert finite
    assert all(r["order"] <= 3 for r in finite)


def test_survey_g2_orders_within_bound(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--families", "G", "--max-rank", "2",
        "--max-cayley-chain", "3", "--format", "json", "--oracle-max-rank", "2",
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["order"] <= 4 for r in rows if isinstance(r["order"], int))


def test_survey_empty_families_exits_two(capsys):
    code, _, err = run_cli(capsys, "survey", "--families", "", "--max-rank", "3")
    assert code == 2 and "--families" in err


def test_survey_unknown_family_exits_two(capsys):
    code, _, err = run_cli(capsys, "survey", "--families", "A,Z", "--max-rank", "3")
    assert code == 2 and "--families" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--max-rank", "-3"), "--max-rank"),
        (("--max-rank", "0"), "--max-rank"),
        (("--max-rank", "3", "--max-cayley-chain", "-1"), "--max-cayley-chain"),
        (("--max-rank", "3", "--oracle-max-rank", "-1"), "--oracle-max-rank"),
        (("--max-rank", "9", "--oracle-max-rank", "9"), "--oracle-max-rank"),
    ],
)
def test_survey_edge_values_exit_two(capsys, monkeypatch, argv, flag):
    # rejected before any case is swept
    monkeypatch.setattr(cli, "run_survey", None)
    code, out, err = run_cli(capsys, "survey", "--families", "A", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}:")


def test_survey_oracle_rank_above_eight_is_fine_below_max_rank(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--families", "A", "--max-rank", "2", "--oracle-max-rank", "9",
    )
    assert code == 0 and "rows: 20" in out


def test_analyze_oracle_above_rank_eight_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_report", None)
    code, out, err = run_cli(
        capsys, "analyze", "--family", "A", "--rank", "9", "--split", "--oracle",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --oracle:")


def test_survey_theorem_violation_exits_one(capsys, monkeypatch):
    def boom(*args, **kwargs):
        from crflag.survey import TheoremViolation

        raise TheoremViolation("forced", "B", 3, (1, 3), "010|111")

    monkeypatch.setattr(cli, "run_survey", boom)
    code, _, err = run_cli(capsys, "survey", "--families", "B", "--max-rank", "3")
    assert code == 1
    assert "reproducer" in err


def test_internal_invariant_violation_exits_three(capsys, monkeypatch):
    def broken(cr):
        raise AssertionError("forced internal failure")

    monkeypatch.setattr(cralgebra, "filtration", broken)
    code, _, err = run_cli(capsys, *GOLDEN_ARGS)
    assert code == 3
    assert "internal" in err


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


def _python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


_TRUNCATED_SURVEY = """
import dataclasses, sys
from crflag import cralgebra, survey
from crflag.roots import InvariantViolation
real = cralgebra.filtration
cralgebra.filtration = lambda cr: dataclasses.replace(real(cr), levels=real(cr).levels[:-1])
try:
    survey.run_survey(["B"], 3, 2, oracle_max_rank=3)
except InvariantViolation:
    sys.exit(3)
"""

_WRONG_MINIMALITY = f"""
import sys
from crflag import cli, cralgebra
cralgebra.is_minimal = lambda cr: False
sys.exit(cli.main({list(GOLDEN_ARGS) + ["--oracle"]!r}))
"""


_SHORT_KERNEL = f"""
import sys
from crflag import chevalley, cli
real = chevalley.levi_tensor_kernel

def short(*args):
    kernel = real(*args)
    return chevalley.Subspace(kernel.ambient_dim, kernel.rows[:-1])

chevalley.levi_tensor_kernel = short
sys.exit(cli.main({list(GOLDEN_ARGS) + ["--oracle"]!r}))
"""


_FLIPPED_BRACKET = f"""
import sys
from crflag import chevalley, cli
real = chevalley.ChevalleyAlgebra

def flipped(**fields):
    # negate one root-root entry [x_a, x_b] = N(a,b) x_(a+b) of the table
    a, b = next(iter(fields["n_table"]))
    row = fields["ad"][fields["root_index"][a]]
    j = fields["root_index"][b]
    row[j] = {{k: -c for k, c in row[j].items()}}
    return real(**fields)

chevalley.ChevalleyAlgebra = flipped
sys.exit(cli.main({list(GOLDEN_ARGS) + ["--oracle"]!r}))
"""


_OPEN_PARABOLIC = """
import sys
from crflag import parabolic
from crflag.roots import InvariantViolation, build_root_system
parabolic.check_root_set_closed = lambda rs, root_set: False
try:
    parabolic.parabolic_from_subset(build_root_system("B", 3), {1, 3})
except InvariantViolation:
    sys.exit(3)
"""


@pytest.mark.parametrize("script", [_TRUNCATED_SURVEY, _WRONG_MINIMALITY, _SHORT_KERNEL,
                                    _FLIPPED_BRACKET, _OPEN_PARABOLIC],
                         ids=["survey-truncated-chain", "analyze-wrong-minimality",
                              "analyze-short-kernel", "analyze-flipped-bracket",
                              "parabolic-not-closed"])
def test_oracle_mismatch_is_caught_under_python_O(script):
    proc = _python("-O", "-c", script, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 3, (out, err)


def test_closed_stdout_exits_141_without_traceback():
    proc = _python(
        "-m", "crflag", "survey", "--families", "A,B,C,D", "--max-rank", "4",
        "--oracle-max-rank", "0", stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"family")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 141
    assert err == b""


_IMPORT_DOES_NO_WORK = """
import crflag
from crflag.chevalley import build_chevalley
from crflag.roots import build_root_system, root_sum_table
print([f.cache_info().currsize for f in (build_root_system, root_sum_table, build_chevalley)])
"""


def test_import_precomputes_nothing():
    # the benchmark's setup_s is the import; tables are built on first use
    proc = _python("-c", _IMPORT_DOES_NO_WORK, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.split() == [b"[0,", b"0,", b"0]"]
