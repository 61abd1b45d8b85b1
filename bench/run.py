#!/usr/bin/env python3
"""Benchmark `hkspread run` on fixed session workloads.

Run from the repository root:

    python3 bench/run.py --workload hk_quadric --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1

--trace 0 times `python -m hkspread.cli run <script>` children, one at a
time, for --seconds (closed loop, one client), and the same CLI on the
script's header alone (`setup_s`); each child's CPU time is scaled to a
fixed machine speed measured beside it (see measure_end_to_end).  --trace 1
runs the CLI in-process instead, alternating an untraced run and a run
with every layer wrapped (bench/layertrace.py), and reports the
per-layer split.  Every report, traced or not, goes through the exact
checks of bench/workloads.py.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` (commands) and `metrics`.  Scripts, per-sample
figures and spans are written under bench/results/.  Exit code 0 means
every check passed, 1 that some did not, 2 that the program is missing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from statistics import mean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "results"

sys.path.insert(0, str(BENCH))
from layertrace import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, evaluate, script_text  # noqa: E402

GUARD_ENV = ("HKSPREAD_MAX_GB_STEPS", "HKSPREAD_MAX_EXPONENT")
TIME_BUDGET_S = 170     # a whole benchmark run stays under this
SETUP_RUNS = 12         # header-only runs behind the setup_s median
SETUP_PER_SAMPLE = 4    # header-only runs before each workload run
MIN_SAMPLES = 2
REF_S = 0.05            # reference-kernel CPU time that run_s and setup_s are scaled to

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("script.parse_script.s", "s"),
    ("runner.run_script.self_s", "s"),
    ("runner.report_json.s", "s"),
    ("groebner.buchberger_raw.calls", "count"),
    ("groebner.buchberger_raw.self_s", "s"),
    ("groebner.buchberger_raw.self_frac", "ratio"),
    ("groebner.buchberger_raw.gens_in", "count"),
    ("groebner.buchberger_raw.basis_out", "count"),
    ("groebner.buchberger_raw.basis_max", "count"),
    ("groebner.reduce.calls", "count"),
    ("groebner.standard_monomials.calls", "count"),
    ("groebner.standard_monomials.self_s", "s"),
    ("lengths.length_quotient.calls", "count"),
    ("lengths.length_quotient.self_s", "s"),
    ("lengths.length_quotient.self_frac", "ratio"),
    ("lengths.length_quotient.monomials", "count"),
    ("lengths.length_quotient.monomials_per_s", "1/s"),
    ("lengths.length_subquotient.calls", "count"),
    ("lengths.hk_function.calls", "count"),
    ("lengths.hk_function.self_s", "s"),
    ("lengths.ehk_estimate.calls", "count"),
    ("lengths.ehk_estimate.self_s", "s"),
    ("lengths.ehk_estimate.repeat_calls", "count"),
    ("ideals.groebner_basis.calls", "count"),
    ("ideals.groebner_basis.hit_ratio", "ratio"),
    ("ideals.bracket_power.calls", "count"),
    ("ideals.bracket_power.self_s", "s"),
    ("ideals.ideal_colon.calls", "count"),
    ("ideals.ideal_intersection.calls", "count"),
    ("spread.star_spread_estimate.calls", "count"),
    ("spread.star_spread_hk_difference.calls", "count"),
    ("spread.check_product_identity.calls", "count"),
    ("spread.check_self_product.calls", "count"),
    ("spread.check_lemma33_additivity.calls", "count"),
    ("spread.check_base_change.calls", "count"),
    ("spread.check_corollary_vanishing.calls", "count"),
    ("spread.star_independence_diagnostic.calls", "count"),
    ("spread.colon_criterion_diagnostic.calls", "count"),
    ("trace.overhead_frac", "ratio"),
    ("quality.ehk_abs_err", "1"),
    ("quality.identity_pass_frac", "ratio"),
)


class ProgramMissing(Exception):
    pass


class SetupFailed(Exception):
    pass


def require_program():
    if not (SRC / "hkspread" / "cli.py").is_file():
        raise ProgramMissing(f"no hkspread sources under {SRC}")


def tail(values):
    """(percentile, value): the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return round(100 * (n - 10) / n, 1), ordered[n - 11]


class Totals:
    """Commands attempted and failed, and why, over every report checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.last = None

    def add(self, outcome: Outcome):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.reasons.extend(outcome.reasons)
        self.last = outcome

    def quality(self):
        """Quality figures of the last report: deterministic on one commit."""
        last = self.last
        rows = last.identity_rows
        return {
            "quality.ehk_abs_err": last.ehk_abs_err,
            "quality.identity_pass_frac":
                last.identity_passed / rows if rows else 1.0,
        }


# -- the CLI as a child process ---------------------------------------------


@dataclass
class CliRun:
    cpu_s: float   # the child's CPU seconds
    ref_s: float   # mean CPU seconds of a reference-kernel run beside it
    wall_s: float
    rss_mb: float
    code: int
    doc: dict | None
    stderr: str

    @property
    def scaled_s(self) -> float:
        """The child's CPU time at the machine speed where one
        reference-kernel run takes REF_S seconds."""
        return self.cpu_s * REF_S / self.ref_s


def child_env():
    env = dict(os.environ)
    for name in GUARD_ENV:
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(script: Path, timeout: float) -> CliRun:
    """One `hkspread run` child with JSON on a pipe, spawned and measured
    by bench/launch.py.  Past the timeout the child and its launcher are
    killed."""
    measured = script.with_suffix(".launch.json")
    measured.unlink(missing_ok=True)
    command = [sys.executable, "-S", str(BENCH / "launch.py"), str(measured),
               sys.executable, "-m", "hkspread.cli", "run", str(script)]
    with open(script.with_suffix(".stderr"), "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=child_env(),
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            out, _ = proc.communicate()
        finally:
            timer.cancel()
            if proc.poll() is None:
                _kill_group(proc.pid)
                proc.wait()
        wall = time.perf_counter() - t0
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    try:
        m = json.loads(measured.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # the launcher was killed: nothing measured
        return CliRun(0.0, REF_S, wall, 0.0, proc.returncode, None, stderr)
    doc = None
    if m["code"] in (0, 1):  # 1: a command failed or a row did not pass
        try:
            doc = json.loads(out)
        except ValueError:
            doc = None
    return CliRun(m["cpu_s"], mean(m["ref_s"]), m["wall_s"],
                  m["maxrss_kb"] / 1024, m["code"], doc, stderr)


def write_scripts(w, seed):
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{seed}"
    script = OUT / f"{stem}.hks"
    header = OUT / f"{stem}-header.hks"
    script.write_text(script_text(w, seed), encoding="utf-8")
    header.write_text(script_text(w, seed, header_only=True), encoding="utf-8")
    return script, header


def measure_end_to_end(w, seed, seconds, deadline):
    """Workload runs, with header-only runs before each.

    Shared machines like the one this was tuned on slow every program by
    up to 1.9x for tens of seconds at a time, with the load of other
    guests, and a whole window can sit in a slow spell: medians of raw
    wall time spread by 0.21-0.26 of the median between ten windows
    there.  So each child is timed by its CPU time against a reference
    kernel that bench/launch.py runs on the same CPU at the same time
    (`scaled_s`), which spread by 0.003-0.014.
    """
    script, header = write_scripts(w, seed)
    totals = Totals()
    runs, setup = [], []

    def set_up():
        r = run_cli(header, deadline - time.monotonic())
        if r.code != 0 or r.doc is None or r.doc.get("results") != []:
            raise SetupFailed(f"header run exit {r.code}: {r.stderr[-500:]}")
        return r

    try:
        set_up()  # warms the bytecode cache; not counted
        start = time.monotonic()
        while True:
            # Header runs are spread over the measured window, so that
            # setup_s sees the same machine as run_s.
            for _ in range(SETUP_PER_SAMPLE):
                if len(setup) < SETUP_RUNS:
                    setup.append(set_up())
            r = run_cli(script, deadline - time.monotonic())
            runs.append(r)
            outcome = evaluate(w, r.doc)
            if r.doc is None:
                outcome.reasons.append(f"exit {r.code}: {r.stderr[-500:]}")
            totals.add(outcome)
            if r.doc is None:
                break
            now = time.monotonic()
            est = median([x.wall_s for x in runs])
            if len(runs) >= MIN_SAMPLES and now - start + est / 2 > seconds:
                break
            if now + est > deadline:
                break
    except SetupFailed as exc:
        totals.attempted += 1
        totals.failed += 1
        totals.reasons.append(str(exc))
        return None, totals, {}

    run_s = [r.scaled_s for r in runs]
    setup_s = [r.scaled_s for r in setup]
    metrics = {
        "run_s": median(run_s),
        "setup_s": median(setup_s),
        "peak_rss_mb": median([r.rss_mb for r in runs]),
    }
    detail = {
        "script": script.name,
        "run_s_samples": run_s,
        "run_s_tail": tail(run_s),
        "setup_s_samples": setup_s,
        "run_cpu_s_samples": [r.cpu_s for r in runs],
        "run_ref_s_samples": [r.ref_s for r in runs],
        "run_wall_s_samples": [r.wall_s for r in runs],
        "setup_cpu_s_samples": [r.cpu_s for r in setup],
        "setup_ref_s_samples": [r.ref_s for r in setup],
        "peak_rss_mb_samples": [r.rss_mb for r in runs],
        "exit_codes": [r.code for r in runs],
        **totals.quality(),
    }
    return metrics, totals, detail


# -- the CLI in-process, untraced and traced --------------------------------


def import_program():
    sys.path.insert(0, str(SRC))
    import hkspread
    import hkspread.cli
    where = Path(hkspread.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProgramMissing(f"hkspread imported from {where}, not {SRC}")
    return hkspread.cli


def run_in_process(cli, script: Path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["run", str(script)])
    try:
        doc = json.loads(buf.getvalue())
    except ValueError:
        doc = None
    return code, doc


def layer_metrics(tracer: Tracer, run_s: float) -> dict:
    """Every per-layer figure of one traced run, keyed like PER_LAYER."""
    m = {}
    for name in SPAN_NAMES:
        st = tracer.stats[name]
        m[f"{name}.calls"] = st.calls
        m[f"{name}.self_s"] = st.self_s
        m[f"{name}.total_s"] = st.total_s
        m[f"{name}.self_frac"] = st.self_s / run_s if run_s else 0.0
        for key, value in st.counters.items():
            m[f"{name}.{key}"] = value
    st = tracer.stats
    m["script.parse_script.s"] = st["script.parse_script"].total_s
    m["runner.report_json.s"] = st["runner.report_json"].total_s
    gb = st["ideals.groebner_basis"]
    m["ideals.groebner_basis.hit_ratio"] = (
        gb.counters.get("hits", 0) / gb.calls if gb.calls else 0.0)
    lq = st["lengths.length_quotient"]
    monomials = lq.counters.get("monomials", 0)
    m["lengths.length_quotient.monomials"] = monomials
    m["lengths.length_quotient.monomials_per_s"] = (
        monomials / lq.self_s if lq.self_s else 0.0)
    for name, key in (("groebner.buchberger_raw", "gens_in"),
                      ("groebner.buchberger_raw", "basis_out"),
                      ("groebner.buchberger_raw", "basis_max"),
                      ("lengths.ehk_estimate", "repeat_calls")):
        m.setdefault(f"{name}.{key}", 0)
    return m


def measure_traced(w, seed, seconds, deadline):
    cli = import_program()
    for name in GUARD_ENV:
        os.environ.pop(name, None)
    script, _ = write_scripts(w, seed)
    totals = Totals()
    plain, traced, layers = [], [], []
    tracer = None

    def run(tracing):
        nonlocal tracer
        if tracing:
            tracer = Tracer()
            with tracer.installed():
                _, doc = run_in_process(cli, script)
        else:
            _, doc = run_in_process(cli, script)
        totals.add(evaluate(w, doc))
        if doc is None or "timing" not in doc:
            return False
        run_s = doc["timing"]["total_seconds"]
        if tracing:
            traced.append(run_s)
            layers.append(layer_metrics(tracer, run_s))
        else:
            plain.append(run_s)
        return True

    start = time.monotonic()
    for rounds in count():
        t0 = time.monotonic()
        first = rounds % 2 == 1  # alternate which run goes first
        if not (run(first) and run(not first)):
            break
        now = time.monotonic()
        pair = now - t0
        if now - start + pair / 2 > seconds or now + pair > deadline:
            break

    if not layers:
        return None, totals, {}
    merged = {k: median([run[k] for run in layers]) for k in layers[0]}
    merged["trace.overhead_frac"] = median(traced) / median(plain) - 1
    merged.update(totals.quality())
    spans_path = OUT / f"{w.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps(
        {"fields": ["id", "parent", "name", "start", "end"],
         "missing": tracer.missing, "spans": tracer.spans}), encoding="utf-8")
    detail = {"script": script.name, "untraced_run_s": plain,
              "traced_run_s": traced, "missing": tracer.missing,
              "spans": spans_path.name, "layers": merged}
    return merged, totals, detail


# -- output --------------------------------------------------------------------


def run_workload(w, seed, seconds, trace):
    deadline = time.monotonic() + TIME_BUDGET_S
    measure = measure_traced if trace else measure_end_to_end
    values, totals, detail = measure(w, seed, seconds, deadline)
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    if values is not None:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in wanted}
    result = {
        "correct": values is not None and totals.failed == 0,
        "attempted": max(totals.attempted, 1),
        "failed": totals.failed,
        "metrics": metrics,
    }
    record = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": trace, "result": result, "detail": detail,
              "reasons": totals.reasons}
    suffix = "-trace" if trace else ""
    (OUT / f"{w.name}-seed{seed}{suffix}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return result, detail, totals.reasons


def print_summary(name, result, detail, reasons):
    for reason in reasons[:10]:
        print(f"{name}: FAILED {reason}")
    for metric, m in result["metrics"].items():
        note = ""
        if metric == "run_s":
            n = len(detail["run_s_samples"])
            pct = detail["run_s_tail"]
            note = f"  median of {n}" + (
                f", p{pct[0]} {pct[1]:.4f} s" if pct else
                ", too few samples for a tail percentile")
            note += (f"; CPU {median(detail['run_cpu_s_samples']):.4f} s, "
                     f"reference {median(detail['run_ref_s_samples']):.4f} s")
        elif metric == "setup_s":
            note = f"  median of {len(detail['setup_s_samples'])}"
        print(f"{name:16s} {metric:44s} {m['value']:.6g} {m['unit']}{note}")
    if "quality.ehk_abs_err" in detail:  # untraced: quality is report data
        print(f"{name:16s} {'ehk_abs_err':44s} {detail['quality.ehk_abs_err']:.6g}")
        print(f"{name:16s} {'identity_pass_frac':44s} "
              f"{detail['quality.identity_pass_frac']:.6g}")
    print(f"{name:16s} {'fail_frac':44s} "
          f"{result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} commands)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and its children, so that each CLI child
    # and the reference kernel timed beside it share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        require_program()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, detail, reasons = run_workload(
                WORKLOADS[name], args.seed, args.seconds, args.trace)
            print_summary(name, result, detail, reasons)
            results[name] = result
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
