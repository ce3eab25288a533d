"""Command-line front end.

Exit codes: 0 success, 1 theorem violation or self-test mismatch,
2 usage/validation error, 3 internal invariant violation (an oracle
mismatch included, also under ``python -O``), 141 stdout closed early.

A command imports only the layers it runs: the Chevalley oracle when an
oracle runs (``analyze --oracle``, a survey with a positive oracle rank),
and the survey inside ``survey``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .cralgebra import DEGENERATE, ORBIT_CR, analyze, evaluate
from .involution import (
    InvolutionData,
    InvolutionError,
    cayley_update,
    identity_involution,
    involution_from_matrix,
    strongly_orthogonal,
)
from .parabolic import ParabolicData, c_of_q, parabolic_from_subset
from .roots import FAMILIES, RootSystem, UnknownRootSystem, build_root_system, format_root

if TYPE_CHECKING:
    from .survey import SurveyRow


class UsageError(ValueError):
    """A flag value failed validation; the message names the flag."""


# analyze's cost grows about as rank^3 on the A-D families
MAX_ANALYZE_RANK = 100
# survey sweeps 2^rank parabolics per rank, each against every Cayley
# involution; 8 is the largest exceptional rank and the oracle's bound
MAX_SURVEY_RANK = 8


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_index_list(text: str, flag: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: expected a comma list of integers, got {text!r}") from exc


def _parse_root_list(text: str, rank: int, flag: str):
    """'|'-separated integer vectors of length ``rank``, as tuples."""
    vectors = []
    for part in text.split("|"):
        entries = _parse_index_list(part, flag)
        if len(entries) != rank:
            raise UsageError(f"{flag}: {part!r} needs {rank} entries")
        vectors.append(tuple(entries))
    return vectors


def _parse_matrix(text: str, rank: int, flag: str):
    rows = _parse_root_list(text, rank, flag)
    if len(rows) != rank:
        raise UsageError(f"{flag}: expected {rank} rows")
    return tuple(rows)


def _check_oracle_rank(rank: int, flag: str) -> None:
    from .chevalley import MAX_RANK

    if rank > MAX_RANK:
        raise UsageError(f"{flag}: the Chevalley oracle is bounded at rank {MAX_RANK}, got {rank}")


def _root_strings(rs: RootSystem, roots) -> list[str]:
    """The members of a root set, formatted, in the order of ``rs.roots``."""
    return [format_root(r) for r in rs.roots if r in roots]


# ---------------------------------------------------------------------------
# analyze


def build_report(rs: RootSystem, q: ParabolicData, sigma: InvolutionData,
                 run_oracle: bool) -> dict:
    """The analyze report of one case, as its JSON object.  Keys that do
    not apply to the case are left out: ``order`` for open, totally real
    and degenerate orbits, ``degenerate`` off CR orbits, ``witness`` unless
    degenerate, ``c_of_q`` unless q is maximal."""
    cr = analyze(rs, q, sigma)
    result = evaluate(cr)
    if run_oracle:
        from .chevalley import cross_check

        cross_check(rs, q.root_set, cr.sigma_q, result.levels, result.minimal)
    sigma_report = {"provenance": sigma.provenance,
                    "matrix": [list(row) for row in sigma.matrix]}
    if isinstance(sigma.provenance, tuple):
        sigma_report.update(provenance="cayley",
                            chain=[format_root(g) for g in sigma.provenance])
    report = {
        "family": rs.family,
        "rank": rs.rank,
        "parabolic": sorted(q.qr),
        "sigma": sigma_report,
        "orbit_type": cr.orbit_type,
        "dim_Z": cr.dim_Z,
        "dimR_M": cr.dimR_M,
        "cr_dim": cr.cr_dim,
        "cr_codim": cr.cr_codim,
        "filtration": [_root_strings(rs, level) for level in result.levels],
        "minimal": result.minimal,
        "oracle_checked": run_oracle,
    }
    if isinstance(result.order, int):
        report["order"] = result.order
    if cr.orbit_type == ORBIT_CR:
        report["degenerate"] = result.witness is not None
        if result.witness is not None:
            report["witness"] = _root_strings(rs, result.witness)
    if q.is_maximal:
        report["c_of_q"] = c_of_q(rs, q)
    return report


def _report_text(report: dict) -> str:
    """The text form of a ``build_report`` object: one ``key: value`` line
    per present key, in a fixed order, then the filtration levels."""
    def show(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, list):
            return " ".join(value)
        return str(value)

    sigma = report["sigma"]
    lines = [
        f"family: {report['family']}",
        f"rank: {report['rank']}",
        f"parabolic: {','.join(str(i) for i in report['parabolic']) or '-'}",
        f"sigma: {sigma['provenance']}"
        + (f" {'|'.join(sigma['chain'])}" if "chain" in sigma else ""),
        "sigma_matrix: " + "|".join(",".join(str(x) for x in row) for row in sigma["matrix"]),
    ]
    for key in ("orbit_type", "dim_Z", "dimR_M", "cr_dim", "cr_codim", "order",
                "degenerate", "witness", "c_of_q", "minimal", "oracle_checked"):
        if key in report:
            lines.append(f"{key}: {show(report[key])}")
    lines.append("filtration:")
    for k, level in enumerate(report["filtration"]):
        lines.append(f"  q({k}): {' '.join(level)}")
    return "\n".join(lines)


def _sigma_from_args(rs: RootSystem, args) -> InvolutionData:
    if args.split:
        return identity_involution(rs)
    if args.cayley is not None:
        sigma = identity_involution(rs)
        chain = _parse_root_list(args.cayley, rs.rank, "--cayley")
        for i, root in enumerate(chain):
            try:
                sigma = cayley_update(rs, sigma, root)
            except InvolutionError as exc:
                raise UsageError(f"--cayley: {exc}") from exc
            if not all(strongly_orthogonal(rs, root, earlier) for earlier in chain[:i]):
                raise UsageError(f"--cayley: root {format_root(root)} is not strongly "
                                 "orthogonal to every earlier chain root")
        return sigma
    matrix = _parse_matrix(args.sigma_matrix, rs.rank, "--sigma-matrix")
    try:
        return involution_from_matrix(rs, matrix)
    except InvolutionError as exc:
        raise UsageError(f"--sigma-matrix: {exc}") from exc


def cmd_analyze(args) -> int:
    if args.rank > MAX_ANALYZE_RANK:
        raise UsageError(f"--rank: analyze is bounded at rank {MAX_ANALYZE_RANK}, got {args.rank}")
    if args.oracle:
        _check_oracle_rank(args.rank, "--oracle")
    try:
        rs = build_root_system(args.family, args.rank)
    except UnknownRootSystem as exc:
        raise UsageError(f"--family/--rank: {exc}") from exc
    indices = _parse_index_list(args.parabolic, "--parabolic")
    try:
        q = parabolic_from_subset(rs, indices)
    except ValueError as exc:
        raise UsageError(f"--parabolic: {exc}") from exc
    sigma = _sigma_from_args(rs, args)
    report = build_report(rs, q, sigma, run_oracle=args.oracle)
    print(json.dumps(report, sort_keys=True) if args.format == "json" else _report_text(report))
    return 0


# ---------------------------------------------------------------------------
# example-so7 self test

_SO7_LEVELS = [
    {"001", "100", "-001", "-010", "-011", "-012", "-100", "-110", "-111", "-112", "-122"},
    {"100", "-001", "-010", "-011", "-012", "-111", "-112", "-122"},
    {"100", "-001", "-011", "-012", "-112", "-122"},
    {"100", "-001", "-011", "-012", "-112"},
]


def cmd_example_so7(_args=None) -> int:
    rs = build_root_system("B", 3)
    q = parabolic_from_subset(rs, {1, 3})
    sigma = identity_involution(rs)
    for root in ((0, 1, 0), (1, 1, 1)):
        sigma = cayley_update(rs, sigma, root)
    report = build_report(rs, q, sigma, run_oracle=False)
    computed = [set(level) for level in report["filtration"]]
    ok = len(computed) == len(_SO7_LEVELS)
    for k in range(max(len(computed), len(_SO7_LEVELS))):
        got = computed[k] if k < len(computed) else set()
        want = _SO7_LEVELS[k] if k < len(_SO7_LEVELS) else set()
        if got == want:
            continue
        ok = False
        missing = " ".join(sorted(want - got)) or "-"
        surplus = " ".join(sorted(got - want)) or "-"
        print(f"level {k} mismatch: missing {missing}; unexpected {surplus}")
    order = report.get("order", DEGENERATE)  # the so(7) orbit is CR
    if order != 3:
        ok = False
        print(f"order mismatch: expected 3, got {order}")
    if not ok:
        print("so(7) hypersurface self-test FAILED")
        return 1
    sizes = " > ".join(str(len(level)) for level in computed)
    print("so(7) hypersurface self-test passed:")
    print(f"  isotropic 2-plane orbit is 3-nondegenerate; level root counts {sizes}")
    print(f"  q(inf) roots: {' '.join(sorted(computed[-1]))}")
    return 0


# ---------------------------------------------------------------------------
# survey

_SURVEY_COLUMNS = (
    ("family", 6), ("rank", 4), ("qr", 10), ("involution", 24), ("orbit", 12),
    ("codim", 5), ("order", 12), ("c(q)", 4), ("bound", 5), ("minimal", 7),
    ("oracle", 6),
)


def _survey_row_cells(row: SurveyRow) -> list[str]:
    def show(v):
        if v is None:
            return "-"
        if isinstance(v, bool):
            return "yes" if v else "no"
        return str(v)

    return [
        row.family,
        str(row.rank),
        ",".join(str(i) for i in row.qr) or "-",
        row.involution,
        row.orbit_type,
        str(row.cr_codim),
        show(row.order),
        show(row.c_of_q),
        show(row.bound_satisfied),
        show(row.minimal),
        show(row.oracle_checked),
    ]


def _survey_text(rows: list[SurveyRow]) -> str:
    header = [name.ljust(width) for name, width in _SURVEY_COLUMNS]
    lines = ["  ".join(header).rstrip()]
    for row in rows:
        cells = _survey_row_cells(row)
        lines.append(
            "  ".join(c.ljust(w) for c, (_, w) in zip(cells, _SURVEY_COLUMNS)).rstrip()
        )
    lines.append(f"rows: {len(rows)}")
    return "\n".join(lines)


def _survey_json(rows: list[SurveyRow]) -> str:
    return json.dumps([r._asdict() for r in rows], sort_keys=True)


def cmd_survey(args) -> int:
    families = [f for f in args.families.split(",") if f]
    if not families:
        raise UsageError("--families: at least one family is required")
    for fam in families:
        if fam not in FAMILIES:
            raise UsageError(f"--families: unknown family {fam!r}")
    if args.max_rank < 1:
        raise UsageError(f"--max-rank: must be at least 1, got {args.max_rank}")
    if args.max_cayley_chain < 0:
        raise UsageError(f"--max-cayley-chain: must be at least 0, got {args.max_cayley_chain}")
    if args.oracle_max_rank < 0:
        raise UsageError(f"--oracle-max-rank: must be at least 0, got {args.oracle_max_rank}")
    oracle_rank = min(args.max_rank, args.oracle_max_rank)
    if oracle_rank > 0:
        _check_oracle_rank(oracle_rank, "--oracle-max-rank")
    if args.max_rank > MAX_SURVEY_RANK:
        raise UsageError(f"--max-rank: survey is bounded at rank {MAX_SURVEY_RANK}, got {args.max_rank}")
    from .survey import TheoremViolation, run_survey

    try:
        rows = run_survey(
            families,
            max_rank=args.max_rank,
            involution_source=args.max_cayley_chain,
            hypersurface_only=args.hypersurface_only,
            oracle_max_rank=args.oracle_max_rank,
        )
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 1
    print(_survey_json(rows) if args.format == "json" else _survey_text(rows))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crflag",
        description="Exact CR geometry of real-form orbits in complex flag manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one (type, parabolic, involution) case")
    pa.add_argument("--family", required=True, help="simple type family, A..G")
    pa.add_argument("--rank", required=True, type=int)
    pa.add_argument("--parabolic", default="",
                    help="comma list of kept simple-root indices (empty: Borel)")
    group = pa.add_mutually_exclusive_group(required=True)
    group.add_argument("--cayley", help="Cayley chain, roots '|'-separated, "
                                        "coefficients comma-separated")
    group.add_argument("--sigma-matrix", help="explicit involution matrix, rows "
                                              "'|'-separated, entries comma-separated")
    group.add_argument("--split", action="store_true", help="identity involution")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--oracle", action="store_true",
                    help="cross-check with the bracket-arithmetic oracle")
    pa.set_defaults(func=cmd_analyze)

    pe = sub.add_parser("example-so7", help="built-in so(7) hypersurface self-test")
    pe.set_defaults(func=cmd_example_so7)

    ps = sub.add_parser("survey", help="sweep parabolics and Cayley involutions")
    ps.add_argument("--families", required=True, help="comma list, e.g. A,B,C,D")
    ps.add_argument("--max-rank", required=True, type=int)
    ps.add_argument("--max-cayley-chain", type=int, default=3)
    ps.add_argument("--hypersurface-only", action="store_true")
    ps.add_argument("--oracle-max-rank", type=int, default=4)
    ps.add_argument("--format", choices=("text", "json"), default="text")
    ps.set_defaults(func=cmd_survey)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then raises here, also for short output
        return code
    except BrokenPipeError:
        # the reader closed stdout: send the exit-time flush of what is
        # still buffered to /dev/null, so it cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
