"""Command-line front end.

Exit codes: 0 success, 1 theorem violation or self-test mismatch,
2 usage/validation error, 3 internal invariant violation (an oracle
mismatch included, also under ``python -O``), 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from .chevalley import cross_check
from .cralgebra import (
    ORBIT_CR,
    analyze,
    filtration,
    geometry,
    holomorphic_degeneracy_witness,
    is_minimal,
    nondegeneracy_order,
)
from .involution import (
    InvolutionData,
    InvolutionError,
    cayley_update,
    identity_involution,
    involution_from_matrix,
    strongly_orthogonal,
)
from .parabolic import ParabolicData, c_of_q, parabolic_from_subset
from .roots import RootSystem, UnknownRootSystem, build_root_system, format_root
from .survey import SurveyRow, TheoremViolation, run_survey


class UsageError(ValueError):
    """A flag value failed validation; the message names the flag."""


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
    roots = []
    for part in text.split("|"):
        coeffs = _parse_index_list(part, flag)
        if len(coeffs) != rank:
            raise UsageError(f"{flag}: root {part!r} needs {rank} coefficients")
        roots.append(tuple(coeffs))
    return roots


def _parse_matrix(text: str, rank: int, flag: str):
    rows = []
    for part in text.split("|"):
        row = _parse_index_list(part, flag)
        if len(row) != rank:
            raise UsageError(f"{flag}: row {part!r} needs {rank} entries")
        rows.append(tuple(row))
    if len(rows) != rank:
        raise UsageError(f"{flag}: expected {rank} rows")
    return tuple(rows)


def _check_oracle_rank(rank: int, flag: str) -> None:
    if rank > 8:
        raise UsageError(f"{flag}: the Chevalley oracle is bounded at rank 8, got {rank}")


def _sorted_roots(rs: RootSystem, roots):
    return sorted(roots, key=lambda r: (rs.root_lookup[r] < 0, abs(rs.root_lookup[r])))


def _root_strings(rs: RootSystem, roots) -> list[str]:
    return [format_root(r) for r in _sorted_roots(rs, roots)]


# ---------------------------------------------------------------------------
# analyze


@dataclass
class AnalysisReport:
    family: str
    rank: int
    parabolic: tuple[int, ...]
    sigma_provenance: str
    sigma_chain: list[str] | None
    sigma_matrix: tuple[tuple[int, ...], ...]
    orbit_type: str
    dim_Z: int
    dimR_M: int
    cr_dim: int
    cr_codim: int
    filtration: list[list[str]]
    order: int | None
    degenerate: bool | None
    witness: list[str] | None
    minimal: bool
    c_of_q: int | None
    oracle_checked: bool

    def to_json_dict(self) -> dict:
        sigma: dict = {"provenance": self.sigma_provenance,
                       "matrix": [list(row) for row in self.sigma_matrix]}
        if self.sigma_chain is not None:
            sigma["chain"] = self.sigma_chain
        out: dict = {
            "family": self.family,
            "rank": self.rank,
            "parabolic": list(self.parabolic),
            "sigma": sigma,
            "orbit_type": self.orbit_type,
            "dim_Z": self.dim_Z,
            "dimR_M": self.dimR_M,
            "cr_dim": self.cr_dim,
            "cr_codim": self.cr_codim,
            "filtration": self.filtration,
            "minimal": self.minimal,
            "oracle_checked": self.oracle_checked,
        }
        if self.order is not None:
            out["order"] = self.order
        if self.degenerate is not None:
            out["degenerate"] = self.degenerate
            if self.witness is not None:
                out["witness"] = self.witness
        if self.c_of_q is not None:
            out["c_of_q"] = self.c_of_q
        return out

    def to_text(self) -> str:
        lines = [
            f"family: {self.family}",
            f"rank: {self.rank}",
            f"parabolic: {','.join(str(i) for i in self.parabolic) or '-'}",
            f"sigma: {self.sigma_provenance}"
            + (f" {'|'.join(self.sigma_chain)}" if self.sigma_chain else ""),
            "sigma_matrix: "
            + "|".join(",".join(str(x) for x in row) for row in self.sigma_matrix),
            f"orbit_type: {self.orbit_type}",
            f"dim_Z: {self.dim_Z}",
            f"dimR_M: {self.dimR_M}",
            f"cr_dim: {self.cr_dim}",
            f"cr_codim: {self.cr_codim}",
        ]
        if self.order is not None:
            lines.append(f"order: {self.order}")
        if self.degenerate is not None:
            lines.append(f"degenerate: {'true' if self.degenerate else 'false'}")
            if self.witness is not None:
                lines.append(f"witness: {' '.join(self.witness)}")
        if self.c_of_q is not None:
            lines.append(f"c_of_q: {self.c_of_q}")
        lines.append(f"minimal: {'true' if self.minimal else 'false'}")
        lines.append(f"oracle_checked: {'true' if self.oracle_checked else 'false'}")
        lines.append("filtration:")
        for k, level in enumerate(self.filtration):
            lines.append(f"  q({k}): {' '.join(level)}")
        return "\n".join(lines)


def build_report(rs: RootSystem, q: ParabolicData, sigma: InvolutionData,
                 run_oracle: bool) -> AnalysisReport:
    cr = analyze(rs, q, sigma)
    geo = geometry(cr)
    filt = filtration(cr)
    order = nondegeneracy_order(cr)
    chain = None
    if isinstance(sigma.provenance, tuple):
        prov = "cayley"
        chain = [format_root(g) for g in sigma.provenance]
    else:
        prov = sigma.provenance
    degenerate = None
    witness = None
    if geo.orbit_type == ORBIT_CR:
        w = holomorphic_degeneracy_witness(cr)
        degenerate = w is not None
        if w is not None:
            witness = _root_strings(rs, w)
    minimal = is_minimal(cr)
    if run_oracle:
        cross_check(rs, q.root_set, cr.sigma_q, filt.levels, minimal)
    return AnalysisReport(
        family=rs.family,
        rank=rs.rank,
        parabolic=tuple(sorted(q.qr)),
        sigma_provenance=prov,
        sigma_chain=chain,
        sigma_matrix=sigma.matrix,
        orbit_type=geo.orbit_type,
        dim_Z=geo.dim_Z,
        dimR_M=geo.dimR_M,
        cr_dim=geo.cr_dim,
        cr_codim=geo.cr_codim,
        filtration=[_root_strings(rs, level) for level in filt.levels],
        order=order if isinstance(order, int) else None,
        degenerate=degenerate,
        witness=witness,
        minimal=minimal,
        c_of_q=c_of_q(rs, q) if q.is_maximal else None,
        oracle_checked=run_oracle,
    )


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
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(report.to_text())
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
    cr = analyze(rs, q, sigma)
    filt = filtration(cr)
    computed = [set(format_root(r) for r in level) for level in filt.levels]
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
    order = nondegeneracy_order(cr)
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
    return json.dumps([asdict(r) for r in rows], sort_keys=True)


def cmd_survey(args) -> int:
    families = [f for f in args.families.split(",") if f]
    if not families:
        raise UsageError("--families: at least one family is required")
    for fam in families:
        if fam not in "ABCDEFG" or len(fam) != 1:
            raise UsageError(f"--families: unknown family {fam!r}")
    if args.max_rank < 1:
        raise UsageError(f"--max-rank: must be at least 1, got {args.max_rank}")
    if args.max_cayley_chain < 0:
        raise UsageError(f"--max-cayley-chain: must be at least 0, got {args.max_cayley_chain}")
    if args.oracle_max_rank < 0:
        raise UsageError(f"--oracle-max-rank: must be at least 0, got {args.oracle_max_rank}")
    _check_oracle_rank(min(args.max_rank, args.oracle_max_rank), "--oracle-max-rank")
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
