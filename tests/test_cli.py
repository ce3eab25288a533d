import hashlib
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


def test_analyze_json_golden_snapshot(capsys):
    code, out, _ = run_cli(capsys, *GOLDEN_ARGS, "--format", "json")
    assert code == 0
    assert out == (
        '{"c_of_q": 2, "cr_codim": 1, "cr_dim": 6, "degenerate": false, "dimR_M": 13, '
        '"dim_Z": 7, "family": "B", "filtration": [["001", "100", "-001", "-010", "-100", '
        '"-011", "-110", "-012", "-111", "-112", "-122"], ["100", "-001", "-010", "-011", '
        '"-012", "-111", "-112", "-122"], ["100", "-001", "-011", "-012", "-112", "-122"], '
        '["100", "-001", "-011", "-012", "-112"]], "minimal": true, "oracle_checked": false, '
        '"orbit_type": "cr", "order": 3, "parabolic": [1, 3], "rank": 3, "sigma": {"chain": '
        '["010", "111"], "matrix": [[-1, 0, 0], [-1, -1, 1], [-2, 0, 1]], "provenance": '
        '"cayley"}}\n'
    )


def test_analyze_degenerate_text_snapshot(capsys):
    # a degenerate CR orbit: a witness line and no order line
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "B", "--rank", "3", "--parabolic", "1",
        "--cayley", "1,0,0|1,2,2",
    )
    assert code == 0
    assert out == (
        "family: B\n"
        "rank: 3\n"
        "parabolic: 1\n"
        "sigma: cayley 100|122\n"
        "sigma_matrix: -1,0,0|0,-1,0|0,-2,1\n"
        "orbit_type: cr\n"
        "dim_Z: 8\n"
        "dimR_M: 15\n"
        "cr_dim: 7\n"
        "cr_codim: 1\n"
        "degenerate: true\n"
        "witness: 010 100 110 -001 -010 -100 -011 -110 -012 -111 -112 -122\n"
        "minimal: true\n"
        "oracle_checked: false\n"
        "filtration:\n"
        "  q(0): 100 -001 -010 -100 -011 -110 -012 -111 -112 -122\n"
        "  q(1): 100 -001 -100 -012 -112 -122\n"
        "  q(2): 100 -001 -100 -012 -112\n"
    )


def test_analyze_split_text_snapshot(capsys):
    # not a CR orbit: no order, degenerate or witness line
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "B", "--rank", "3", "--parabolic", "1,3", "--split",
    )
    assert code == 0
    assert out == (
        "family: B\n"
        "rank: 3\n"
        "parabolic: 1,3\n"
        "sigma: identity\n"
        "sigma_matrix: 1,0,0|0,1,0|0,0,1\n"
        "orbit_type: totally_real\n"
        "dim_Z: 7\n"
        "dimR_M: 7\n"
        "cr_dim: 0\n"
        "cr_codim: 7\n"
        "c_of_q: 2\n"
        "minimal: false\n"
        "oracle_checked: false\n"
        "filtration:\n"
        "  q(0): 001 100 -001 -010 -100 -011 -110 -012 -111 -112 -122\n"
    )


def test_analyze_sigma_matrix_text_snapshot(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "A", "--rank", "2", "--parabolic", "1",
        "--sigma-matrix", "0,1|1,0",
    )
    assert code == 0
    assert out == (
        "family: A\n"
        "rank: 2\n"
        "parabolic: 1\n"
        "sigma: explicit\n"
        "sigma_matrix: 0,1|1,0\n"
        "orbit_type: cr\n"
        "dim_Z: 2\n"
        "dimR_M: 3\n"
        "cr_dim: 1\n"
        "cr_codim: 1\n"
        "order: 1\n"
        "degenerate: false\n"
        "c_of_q: 1\n"
        "minimal: true\n"
        "oracle_checked: false\n"
        "filtration:\n"
        "  q(0): 10 -01 -10 -11\n"
        "  q(1): -01 -10 -11\n"
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
        ("analyze", "--family", "B", "--rank", "3", "--parabolic", "1",
         "--sigma-matrix", "1,0,0|0,1,0"),
    ],
)
def test_validation_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err
    if "--sigma-matrix" in argv:
        assert "--sigma-matrix" in err


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
    # skips a level but still ends at q^inf, a consistent chain of order 2
    real = cralgebra.filtration

    def corrupted(cr):
        levels = real(cr)
        return levels[:2] + levels[3:]

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
        return real(cr)[:-1]

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


SURVEY_ARGS = (
    "survey", "--families", "A,B,C,D,G", "--max-rank", "3", "--max-cayley-chain", "3",
    "--oracle-max-rank", "3",
)


@pytest.mark.parametrize("fmt, digest", [("json", "2e306b84af457446"),
                                         ("text", "98a22981016033a6")])
def test_survey_output_snapshot(capsys, fmt, digest):
    # 476 rows: open, totally real and degenerate orbits and orders 1 to 3,
    # every one oracle-checked; pinned by the sha256 of stdout
    code, out, _ = run_cli(capsys, *SURVEY_ARGS, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


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
    # a family is one upper-case letter of roots.FAMILIES
    for families, bad in (("A,Z", "Z"), ("AB", "AB"), ("a", "a")):
        code, _, err = run_cli(capsys, "survey", "--families", families, "--max-rank", "3")
        assert code == 2 and f"--families: unknown family {bad!r}" in err, families


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
    monkeypatch.setattr("crflag.survey.run_survey", None)
    code, out, err = run_cli(capsys, "survey", "--families", "A", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}:")


@pytest.mark.parametrize("max_rank, oracle_max_rank", [("9", "0"), ("1000", "4")])
def test_survey_above_rank_eight_exits_two(capsys, monkeypatch, max_rank, oracle_max_rank):
    # refused before any case is swept
    monkeypatch.setattr("crflag.survey.run_survey", None)
    code, out, err = run_cli(capsys, "survey", "--families", "A", "--max-rank", max_rank,
                             "--oracle-max-rank", oracle_max_rank)
    assert code == 2 and out == ""
    assert err == f"error: --max-rank: survey is bounded at rank 8, got {max_rank}\n"


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
    assert "bounded at rank 8, got 9" in err


@pytest.mark.parametrize("rank", ["101", "1000000"])
def test_analyze_above_rank_hundred_exits_two(capsys, monkeypatch, rank):
    # rejected before any table is built
    def no_build(*_args):
        raise AssertionError("build_root_system called")

    monkeypatch.setattr(cli, "build_root_system", no_build)
    code, out, err = run_cli(capsys, "analyze", "--family", "A", "--rank", rank, "--split")
    assert code == 2 and out == ""
    assert err.startswith("error: --rank:")
    assert f"bounded at rank 100, got {rank}" in err


def test_survey_theorem_violation_exits_one(capsys, monkeypatch):
    def boom(*args, **kwargs):
        from crflag.survey import TheoremViolation

        raise TheoremViolation("forced", "B", 3, (1, 3), "010|111")

    monkeypatch.setattr("crflag.survey.run_survey", boom)
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
import sys
from crflag import cralgebra, survey
from crflag.roots import InvariantViolation
real = cralgebra.filtration

def truncated(cr):
    # drop q(1): the chain still ends at q^inf, so evaluate accepts it and
    # only the oracle can catch it, by the chain's length
    levels = real(cr)
    return levels[:1] + levels[2:] if len(levels) >= 3 else levels

cralgebra.filtration = truncated
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
    return chevalley.Subspace(kernel.ambient_dim, kernel.row_vecs()[:-1])

chevalley.levi_tensor_kernel = short
sys.exit(cli.main({list(GOLDEN_ARGS) + ["--oracle"]!r}))
"""


_FLIPPED_BRACKET = f"""
import sys
from crflag import chevalley, cli
real = chevalley.ChevalleyAlgebra

def flipped(**fields):
    # negate one root-root entry [x_a, x_b] = N(a,b) x_(a+b) of the table
    ad, rank = fields["ad"], fields["rs"].rank
    i, j = next((i, j) for i in range(rank, len(ad)) for j, w in ad[i].items()
                if j >= rank and min(w) >= rank)
    ad[i][j] = {{k: -c for k, c in ad[i][j].items()}}
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
    # importing a layer builds none of its tables: each is built on first
    # use, so a command pays only for the tables its case reads
    proc = _python("-c", _IMPORT_DOES_NO_WORK, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.split() == [b"[0,", b"0,", b"0]"]


_IMPORT_LOADS_NO_NUMBER_TOWER = """
import sys
import crflag
print(sorted(m for m in ("fractions", "decimal") if m in sys.modules))
"""


def test_import_loads_no_fractions_or_decimal():
    # ``fractions`` pulls in ``decimal`` and ``numbers``, and every benchmark
    # interpreter pays for them in setup_s; only ``roots.kappa`` needs it
    proc = _python("-c", _IMPORT_LOADS_NO_NUMBER_TOWER, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.split() == [b"[]"]


_IMPORT_LOADS_NO_LAYER = """
import sys
import crflag
print(sorted(m for m in sys.modules if m.startswith("crflag.")))
"""


def test_import_loads_no_layer():
    # the benchmark's setup_s is this import; every name loads on first use
    proc = _python("-c", _IMPORT_LOADS_NO_LAYER, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.split() == [b"[]"]


_LAYERS_LOADED_BY_COMMAND = """
import json
import sys
from crflag.cli import main
code = main(sys.argv[1:])
print(json.dumps([m for m in sys.modules if m.startswith("crflag.")
                  or m in ("dataclasses", "inspect")]), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, loaded, not_loaded", [
    (("analyze", "--family", "A", "--rank", "3", "--parabolic", "1", "--split"),
     {"crflag.cralgebra"}, {"crflag.chevalley", "crflag.survey"}),
    (("survey", "--families", "A", "--max-rank", "2", "--oracle-max-rank", "0"),
     {"crflag.survey"}, {"crflag.chevalley"}),
    (GOLDEN_ARGS + ("--oracle",), {"crflag.chevalley"}, {"crflag.survey"}),
    (("example-so7",), {"crflag.cralgebra"}, {"crflag.chevalley", "crflag.survey"}),
], ids=["analyze-split", "survey-without-oracle", "analyze-oracle", "example-so7"])
def test_command_loads_only_the_layers_it_runs(argv, loaded, not_loaded):
    # the records are plain classes and named tuples: no command pays for
    # ``dataclasses`` and the ``inspect`` it imports
    proc = _python("-c", _LAYERS_LOADED_BY_COMMAND, *argv,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    modules = set(json.loads(err.decode().splitlines()[-1]))
    assert loaded <= modules and not modules & not_loaded, modules
    assert not modules & {"dataclasses", "inspect"}, modules
