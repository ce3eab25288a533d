"""Benchmark of the crflag CLI: whole workloads timed end to end, and a
separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record     # rewrite the stored reference outputs

Run it from anywhere; it uses the package under ``src/`` of the checkout
that holds this file.  Every CLI invocation goes through
``crflag.cli.main`` in a fresh interpreter (``child.py``), one at a time,
so the package's process-wide caches and memos (``lru_cache`` tables,
``survey._ORACLE_SEEN``) never carry over from one repetition to the next.
A repetition runs each of the workload's invocations once.  A run makes
at least MIN_REPS repetitions, and more while the next one is expected to
end within ``--seconds``.

The inputs of each workload are fixed: they define the workload.  The seed
only orders the invocations inside each repetition.

Every output is compared with the reference stored in ``reference/``; an
invocation that exits non-zero or prints anything else counts as failed.
With ``--trace 0`` the result line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics,
taken from at least MIN_REPS traced repetitions, whose counts must agree
exactly.  They run after one untraced repetition, the base of
``trace.overhead_ratio``; that ratio rests on this single base sample, so
run-to-run noise can swamp it.
A per-layer metric whose function is missing from the package carries
``"absent": true`` next to its value in the result line.  All other output
lines are for people: every metric with its unit, and the run metadata.

End-to-end times are scaled to a host of fixed speed.  On a shared host
the speed one core gives a process drifts by a third and more within
minutes, as other tenants come and go, and no number of repetitions inside
one run averages that out.  So the harness and the interpreters it starts
share one core, and every SLICE_PERIOD_S the harness stops the running
interpreter (SIGSTOP), runs a fixed pure-Python calibration loop (dicts,
tuples and frozensets, like the package's hot paths) for SLICE_S, and lets
the interpreter go on (SIGCONT); one slice also runs before each spawn.
Each time measured in an interpreter is scaled by REFERENCE_PASS_S / (mean
seconds per calibration pass during it), and its wall time leaves the
stops out.  A change to the package moves the scaled times as it moves
the raw ones; a slower host moves neither.

* ``cases_per_s``: cases per repetition (fixed by the inputs) divided by
  the summed scaled wall times of the workload's invocations, each from
  spawn to exit and each the median over the run's repetitions;
* ``cpu_s``: the same sum of scaled user plus system CPU times;
* ``setup_s``: median scaled time from spawning an interpreter until
  ``import crflag`` returns, over SETUP_SPAWNS import-only interpreters
  before the repetitions, as many after them, and every invocation;
* ``peak_rss_mb``: the largest peak RSS of any invocation in the run.

``failed_frac`` (failed / attempted invocations), ``latency.<call>_s``
(median raw wall time of each invocation) and ``host.pass_ms`` (mean
calibration pass over the run's invocations) are printed as well but are
not declared in ``BENCHMARK.json``, which needs every metric on every
workload and never 0.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
SCRATCH = ROOT / ".perfbench_out"

SETUP_SPAWNS = 6        # import-only interpreters before and after the
                        # repetitions, for setup_s: two phases of the host
MIN_REPS = 2            # repetitions per run, however long one takes
SLICE_PERIOD_S = 0.9    # interpreter time between two calibration slices
SLICE_S = 0.1           # length of one calibration slice
REFERENCE_PASS_S = 0.015  # calibration pass that scaled times refer to: about
                          # one lightly loaded core of a current Xeon server
RUN_LIMIT_S = 170.0     # every run ends well inside three minutes


@dataclass(frozen=True)
class Call:
    name: str
    argv: tuple[str, ...]
    rows: int             # output rows (survey rows, or 1 analyze report)
    oracle: bool          # every row must say oracle_checked: true


@dataclass(frozen=True)
class Workload:
    calls: tuple[Call, ...]
    cases: int            # cases analyzed per repetition; fixed by the inputs


WORKLOADS = {
    # the acceptance survey: every case oracle-checked, so the Chevalley
    # oracle takes most of the time and its per-process memo matters.
    # Not listed in BENCHMARK.json: two repetitions of it per run do not
    # fit the benchmark's time budget next to the other two workloads.
    "survey-oracle": Workload(cases=3980, calls=(
        Call("survey", ("survey", "--families", "A,B,C,D,G", "--max-rank", "4",
                        "--max-cayley-chain", "3", "--oracle-max-rank", "4",
                        "--format", "json"), rows=3980, oracle=True),
    )),
    # many small cases through the fast path, no oracle at all
    "sweep-hyper5": Workload(cases=29516, calls=(
        Call("survey", ("survey", "--families", "A,B,C,D", "--max-rank", "5",
                        "--max-cayley-chain", "3", "--hypersurface-only",
                        "--oracle-max-rank", "0", "--format", "json"),
             rows=2256, oracle=False),
    )),
    # one-shot users: per-root-system set-up (root system, sum table,
    # Chevalley tables) dominates, on one case with very large root sets
    "analyze-cold": Workload(cases=2, calls=(
        Call("a30_split", ("analyze", "--family", "A", "--rank", "30", "--parabolic", "1",
                           "--split", "--format", "json"), rows=1, oracle=False),
        Call("e8_oracle", ("analyze", "--family", "E", "--rank", "8",
                           "--parabolic", "1,2,3,4,5,6,7", "--cayley", "0,0,0,0,0,0,0,1",
                           "--format", "json", "--oracle"), rows=1, oracle=True),
    )),
    # tiny inputs for the benchmark's own tests; not listed in BENCHMARK.json
    "smoke": Workload(cases=277, calls=(
        Call("survey", ("survey", "--families", "A,B", "--max-rank", "3",
                        "--max-cayley-chain", "2", "--oracle-max-rank", "3",
                        "--format", "json"), rows=276, oracle=True),
        Call("so7_oracle", ("analyze", "--family", "B", "--rank", "3", "--parabolic", "1,3",
                            "--cayley", "0,1,0|1,1,1", "--format", "json", "--oracle"),
             rows=1, oracle=True),
    )),
}


class BenchError(Exception):
    """The benchmark cannot produce a result; the message says why."""


# ---------------------------------------------------------------------------
# one invocation


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    ok: bool
    rows: list | None
    trace: dict | None
    host_s: float = REFERENCE_PASS_S   # mean calibration pass during the invocation

    @property
    def scale(self) -> float:
        return REFERENCE_PASS_S / self.host_s


def _calibration_pass() -> int:
    counts, sets = {}, set()
    for i in range(20000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        sets.add(frozenset(key))
    return len(counts) + len(sets)


def calibrate(seconds: float) -> tuple[int, float]:
    """Calibration passes made in about ``seconds``, and their time."""
    passes, t0 = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < seconds:
        _calibration_pass()
        passes += 1
    return passes, elapsed


def _spawn(mode: str, cli_args, deadline: float) -> tuple[float, object, int, bytes, dict]:
    """Run child.py once; return its wall seconds without the stops, rusage,
    exit code, stdout and report, to which ``setup_s`` and, unless traced,
    the mean calibration pass ``host_s`` are added.  A traced child runs
    unstopped, because the tracer times layers by wall clock.  The child is
    killed at the deadline."""
    SCRATCH.mkdir(exist_ok=True)
    out_path = SCRATCH / "stdout"
    report_path = SCRATCH / "report.json"
    report_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    sliced = mode != "trace"
    passes, pass_s = calibrate(SLICE_S) if sliced else (0, 0.0)
    stopped = 0.0
    with open(out_path, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(report_path), mode, *cli_args],
            stdout=out, stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
        )
        # signals go through the pidfd: Popen.send_signal would reap an
        # exited child and lose its rusage
        pidfd = os.pidfd_open(proc.pid)
        try:
            next_slice = t0 + SLICE_PERIOD_S if sliced else math.inf
            while True:
                timeout = max(min(next_slice, deadline) - time.monotonic(), 0)
                exited = select.select([pidfd], [], [], timeout)[0]
                stop = time.monotonic()
                if exited or stop >= deadline:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)  # no-op once exited
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                if stop < next_slice:
                    continue
                signal.pidfd_send_signal(pidfd, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    break
                n, t = calibrate(SLICE_S)
                passes, pass_s = passes + n, pass_s + t
                signal.pidfd_send_signal(pidfd, signal.SIGCONT)
                resumed = time.monotonic()
                stopped += resumed - stop
                next_slice = resumed + SLICE_PERIOD_S
        except BaseException:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.monotonic() - t0 - stopped
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {}
    if report_path.exists():
        report = json.loads(report_path.read_text())
        report["setup_s"] = report["imported_at"] - t0
        if sliced:
            report["host_s"] = pass_s / passes
    return wall, usage, proc.returncode, out_path.read_bytes(), report


def import_times(deadline: float) -> list[float]:
    """Scaled set-up times of SETUP_SPAWNS import-only interpreters."""
    times = []
    for _ in range(SETUP_SPAWNS):
        _, _, rc, _, report = _spawn("import", (), deadline)
        if rc != 0 or "setup_s" not in report:
            raise BenchError("the package does not import")
        times.append(report["setup_s"] * REFERENCE_PASS_S / report["host_s"])
    return times


def _as_rows(obj) -> list:
    return obj if isinstance(obj, list) else [obj]


def check_output(call: Call, stdout: bytes, reference) -> str | None:
    """None when the output matches the reference, else the reason."""
    try:
        got = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    rows = _as_rows(got)
    if len(rows) != call.rows:
        return f"{len(rows)} rows, expected {call.rows}"
    if call.oracle and not all(r.get("oracle_checked") is True for r in rows):
        return "a row is not oracle-checked"
    if got != reference:
        ref_rows = _as_rows(reference)
        first = next((i for i, (a, b) in enumerate(zip(rows, ref_rows)) if a != b), len(ref_rows))
        return f"output differs from the reference at row {first}"
    return None


def invoke(call: Call, mode: str, reference, deadline: float) -> Outcome:
    wall, usage, rc, stdout, report = _spawn(mode, call.argv, deadline)
    problem = f"exit code {rc}" if rc != 0 else check_output(call, stdout, reference)
    if problem:
        print(f"FAILED {call.name}: {problem}", file=sys.stderr)
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=report.get("setup_s"),
        ok=problem is None,
        rows=None if problem else _as_rows(json.loads(stdout)),
        trace=report.get("trace"),
        host_s=report.get("host_s", REFERENCE_PASS_S),
    )


# ---------------------------------------------------------------------------
# repetitions


def load_reference(workload: str, call: Call):
    path = REFERENCE / f"{workload}.{call.name}.json.gz"
    try:
        return json.loads(gzip.decompress(path.read_bytes()))
    except FileNotFoundError as exc:
        raise BenchError(f"no reference output {path}") from exc


def run_reps(wl: Workload, refs: dict, mode: str, rng: random.Random, seconds: float,
             start: float, deadline: float,
             min_reps: int = MIN_REPS) -> list[list[tuple[Call, Outcome]]]:
    """At least ``min_reps`` repetitions in ``mode``, then more until the
    next one would end after ``start + seconds``; each is a list of
    (call, outcome) in run order."""
    reps: list[list[tuple[Call, Outcome]]] = []
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        order = rng.sample(wl.calls, len(wl.calls))
        reps.append([(c, invoke(c, mode, refs[c.name], deadline)) for c in order])
        durations.append(time.monotonic() - t0)
        expected_end = time.monotonic() + statistics.median(durations)
        if expected_end > deadline or (len(reps) >= min_reps and expected_end > start + seconds):
            return reps


def _percentile(values, p):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def end_to_end(wl: Workload, reps, setup_samples) -> dict[str, float]:
    outcomes = [o for rep in reps for _, o in rep]
    setups = setup_samples + [o.setup_s * o.scale for o in outcomes if o.setup_s is not None]
    runs = [[o for rep in reps for d, o in rep if d is c] for c in wl.calls]
    metrics = {
        "cases_per_s": wl.cases / sum(statistics.median(o.wall_s * o.scale for o in outs)
                                      for outs in runs),
        "cpu_s": sum(statistics.median(o.cpu_s * o.scale for o in outs) for outs in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "failed_frac": sum(not o.ok for o in outcomes) / len(outcomes),
        "host.pass_ms": statistics.mean(o.host_s for o in outcomes) * 1000,
    }
    for call, outs in zip(wl.calls, runs):
        metrics[f"latency.{call.name}_s"] = statistics.median(o.wall_s for o in outs)
    return metrics


# per-layer metric -> wrapped function it needs (absent when not wrapped)
_SELF_TIMES = (
    "roots.build_root_system", "roots.root_sum_table", "parabolic.parabolic_from_subset",
    "involution.enumerate_cayley_involutions", "involution.cayley_update",
    "roots.kappa", "cralgebra.analyze", "cralgebra.filtration", "cralgebra.is_minimal",
    "cralgebra.holomorphic_degeneracy_witness", "chevalley.build_chevalley",
    "chevalley.oracle_filtration", "chevalley.levi_tensor_kernel",
    "chevalley.oracle_minimality", "survey.run_survey", "cli.main",
)
_TOTAL_TIMES = (
    "roots.build_root_system", "parabolic.parabolic_from_subset", "chevalley.build_chevalley",
)
_CALL_COUNTS = ("cralgebra.analyze", "chevalley.oracle_filtration", "chevalley.levi_tensor_kernel")


def per_layer(rep) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics of one traced repetition, and the names whose
    function no longer exists in the package."""
    wrapped, self_s, total_s, calls, errors = set(), {}, {}, {}, {}
    apply_calls, analyze_us, repeats = 0, [], 0
    survey_cases = survey_rows = rows = oracle_rows = 0
    absent: set[str] = set()
    for call, o in rep:
        t = o.trace or {}
        wrapped.update(t.get("wrapped", ()))
        for into, field in ((self_s, "self_s"), (total_s, "total_s"), (calls, "calls"),
                            (errors, "errors")):
            for key, v in t.get(field, {}).items():
                into[key] = into.get(key, 0) + v
        apply_calls += t.get("apply_calls") or 0
        analyze_us += t.get("analyze_us", [])
        if t.get("repeats") is None:
            absent.add("survey.repeat_share")
        else:
            repeats += t["repeats"]
        n_rows = len(o.rows or ())
        rows += n_rows
        oracle_rows += sum(1 for r in o.rows or () if r.get("oracle_checked"))
        if call.argv[0] == "survey":
            survey_cases += t.get("calls", {}).get("cralgebra.analyze", 0)
            survey_rows += n_rows

    metrics: dict[str, float] = {}
    for key in _SELF_TIMES:
        metrics[f"{key}.self_s"] = self_s.get(key, 0.0)
        if key not in wrapped:
            absent.add(f"{key}.self_s")
    for key in _TOTAL_TIMES:
        metrics[f"{key}.total_s"] = total_s.get(key, 0.0)
    for key in _CALL_COUNTS:
        metrics[f"{key}.calls"] = calls.get(key, 0)
    absent.update(f"{key}.{kind}" for kind, keys in (("total_s", _TOTAL_TIMES),
                  ("calls", _CALL_COUNTS)) for key in keys if key not in wrapped)
    if "involution.apply" not in wrapped:
        absent.add("involution.apply.calls")
    analyzed = calls.get("cralgebra.analyze", 0)
    metrics.update({
        "involution.apply.calls": apply_calls,
        "cralgebra.analyze.p50_us": _percentile(analyze_us, 50),
        "cralgebra.analyze.p99_us": _percentile(analyze_us, 99),
        "cralgebra.kept_ratio": rows / analyzed if analyzed else 0.0,
        "chevalley.oracle_memo_hit_ratio":
            1 - calls.get("chevalley.oracle_filtration", 0) / oracle_rows if oracle_rows else 0.0,
        "survey.cases": survey_cases,
        "survey.rows": survey_rows,
        "survey.repeat_share": repeats / analyzed if analyzed else 0.0,
    })
    for layer in ("roots", "parabolic", "involution", "cralgebra", "chevalley", "survey", "cli"):
        metrics[f"{layer}.errors"] = errors.get(layer, 0)
    return metrics, absent


def traced_metrics(per_rep, reps, base_rep) -> tuple[dict[str, float], bool]:
    """Median of the traced repetitions' times; counts must repeat exactly."""
    merged: dict[str, float] = {}
    repeated = True
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        if isinstance(values[0], int):
            repeated = repeated and len(set(values)) == 1
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    traced_cpu = statistics.median([sum(o.cpu_s for _, o in rep) for rep in reps])
    base_cpu = sum(o.cpu_s for _, o in base_rep)
    merged["trace.overhead_ratio"] = traced_cpu / base_cpu - 1
    return merged, repeated


# ---------------------------------------------------------------------------
# reporting


def git_head(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def emit(declared: list[dict], values: dict[str, float], extra_units: dict[str, str],
         correct: bool, attempted: int, failed: int, meta: dict, absent=()) -> None:
    for m in declared:
        flag = "  (absent at this commit)" if m["name"] in absent else ""
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}{flag}")
    for name, unit in extra_units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if m["name"] in absent:
            metrics[m["name"]]["absent"] = True
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    refs = {c.name: load_reference(args.workload, c) for c in wl.calls}
    rng = random.Random(args.seed)
    # the calibration slices must measure the core the interpreters run on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": sys.version.split()[0], "git": git_head(ROOT),
        "loadavg_start": os.getloadavg(), "optimize": sys.flags.optimize,
    }
    if args.trace:
        base = run_reps(wl, refs, "run", rng, 0, start, deadline, min_reps=1)[0]
        reps = run_reps(wl, refs, "trace", rng, args.seconds, time.monotonic(), deadline)
        outcomes = [o for _, o in base] + [o for rep in reps for _, o in rep]
        per_rep, absents = zip(*(per_layer(rep) for rep in reps))
        absent = set().union(*absents)
        values, repeated = traced_metrics(per_rep, reps, base)
        if not repeated:
            print("FAILED: traced counts differ between repetitions", file=sys.stderr)
        declared, extra = spec["per_layer"], {}
        meta["traced_reps"] = len(reps)
        meta["oracle_filtration_calls_per_rep"] = [
            m["chevalley.oracle_filtration.calls"] for m in per_rep]
        meta["absent"] = sorted(absent)
    else:
        setup_samples = import_times(deadline)
        reps = run_reps(wl, refs, "run", rng, args.seconds, time.monotonic(), deadline)
        setup_samples += import_times(deadline)
        outcomes = [o for rep in reps for _, o in rep]
        values, absent, repeated = end_to_end(wl, reps, setup_samples), set(), True
        declared = spec["end_to_end"]
        extra = {"failed_frac": "ratio", "host.pass_ms": "ms"}
        extra.update({f"latency.{c.name}_s": "s" for c in wl.calls})
        meta["reps"] = len(reps)
        meta["rep_wall_s"] = [round(sum(o.wall_s for _, o in rep), 3) for rep in reps]
    failed = sum(not o.ok for o in outcomes)
    meta["loadavg_end"] = os.getloadavg()
    emit(declared, values, extra, failed == 0 and repeated, len(outcomes), failed, meta, absent)
    return 0


def record() -> int:
    """Rewrite the reference outputs from the current program."""
    REFERENCE.mkdir(exist_ok=True)
    deadline = time.monotonic() + 3600
    for name, wl in WORKLOADS.items():
        for call in wl.calls:
            _, _, rc, stdout, _ = _spawn("run", call.argv, deadline)
            if rc != 0:
                raise BenchError(f"{name}.{call.name} exited with {rc}")
            got = json.loads(stdout)
            problem = check_output(call, stdout, got)
            if problem:
                raise BenchError(f"{name}.{call.name}: {problem}")
            data = json.dumps(got, sort_keys=True, separators=(",", ":")).encode()
            path = REFERENCE / f"{name}.{call.name}.json.gz"
            path.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the interpreter it started,
    # which may be stopped for a calibration slice at that moment
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # under -O every assert in the package vanishes, the oracle comparison
    # included, so the run would time a different program
    if sys.flags.optimize or "PYTHONOPTIMIZE" in os.environ:
        print("error: refusing to run with python -O or PYTHONOPTIMIZE set", file=sys.stderr)
        return 2
    if not (SRC / "crflag" / "__init__.py").is_file():
        print(f"error: no crflag package under {SRC}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    try:
        return record() if args.record else run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
