#!/usr/bin/env python3
"""Self-test of the benchmark itself, at small size (every e_max capped at 2).

Run from the repository root:

    python3 bench/selftest.py

It checks that:
- every workload passes its exact checks through the CLI child, at two
  seeds, and the child's CPU time, reference time and RSS are measured;
- a report with one value off by one counts as a failed command;
- a traced in-process run passes the same checks, finds every layer, and
  leaves every module attribute and method as it was;
- BENCHMARK.json names the workloads and metrics that run.py reports;
- run.py exits non-zero, printing no result, where the program is missing.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
from layertrace import METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS, evaluate, script_text  # noqa: E402

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def small_script(w, seed, suffix=""):
    run.OUT.mkdir(parents=True, exist_ok=True)
    path = run.OUT / f"selftest-{w.name}-seed{seed}{suffix}.hks"
    path.write_text(script_text(w, seed, small=True), encoding="utf-8")
    return path


def test_workloads():
    docs = {}
    for w in WORKLOADS.values():
        for seed in (1, 2):
            r = run.run_cli(small_script(w, seed), 120)
            out = evaluate(w, r.doc, small=True)
            check(r.code in (0, 1) and out.failed == 0 and out.attempted > 0,
                  f"{w.name} seed {seed}: exit {r.code}, "
                  f"{out.failed}/{out.attempted} failed {out.reasons}")
            check(r.cpu_s > 0 and r.ref_s > 0 and r.rss_mb > 0,
                  f"{w.name} seed {seed}: CPU {r.cpu_s:.3f} s, reference "
                  f"{r.ref_s:.4f} s, RSS {r.rss_mb:.1f} MB measured")
            docs[w.name] = r.doc
    return docs


def test_off_by_one(docs):
    w = WORKLOADS["hk_quadric"]
    doc = copy.deepcopy(docs[w.name])
    doc["results"][0]["data"]["samples"][-1]["colength"] += 1
    out = evaluate(w, doc, small=True)
    check(out.failed / out.attempted > 0, "hk_quadric: a colength off by one fails")

    w = WORKLOADS["session_quadric"]
    doc = copy.deepcopy(docs[w.name])
    spread = next(r for r in doc["results"] if r["kind"] == "spread")
    spread["data"]["cells"][-1]["length"] -= 1
    out = evaluate(w, doc, small=True)
    check(out.failed / out.attempted > 0,
          "session_quadric: a spread cell length off by one fails")

    w = WORKLOADS["colon_cubic"]
    doc = copy.deepcopy(docs[w.name])
    del doc["results"][-1]
    out = evaluate(w, doc, small=True)
    check(out.failed == out.attempted, "colon_cubic: a missing result fails")
    check(evaluate(w, None, small=True).failed > 0, "no report fails")


def attribute_snapshot():
    snap = {}
    for name, module in sys.modules.items():
        if name == "hkspread" or name.startswith("hkspread."):
            snap.update({(name, k): v for k, v in vars(module).items()})
    for mod_name, cls_name, meth in METHODS.values():
        cls = getattr(sys.modules[f"hkspread.{mod_name}"], cls_name)
        snap[(cls_name, meth)] = cls.__dict__[meth]
    return snap


def current(key):
    name, attr = key
    if name in sys.modules:
        return vars(sys.modules[name]).get(attr)
    mod_name = next(m for m, c, _ in METHODS.values() if c == name)
    return getattr(sys.modules[f"hkspread.{mod_name}"], name).__dict__[attr]


def test_traced_run():
    cli = run.import_program()
    before = attribute_snapshot()
    for w in WORKLOADS.values():
        tracer = Tracer()
        with tracer.installed():
            patched = tracer.patched_count()
            _, doc = run.run_in_process(cli, small_script(w, 3, "-traced"))
        out = evaluate(w, doc, small=True)
        check(out.failed == 0, f"{w.name}: traced run passes the checks "
                               f"{out.reasons}")
        check(not tracer.missing, f"{w.name}: every layer found "
                                  f"(missing {tracer.missing})")
        check(patched > 0 and tracer.patched_count() == 0,
              f"{w.name}: {patched} wrappers installed and removed")
        calls = tracer.stats["runner.run_script"].calls
        check(calls == 1, f"{w.name}: one run_script span ({calls})")
        m = run.layer_metrics(tracer, doc["timing"]["total_seconds"])
        check(all(name in m for name, _ in run.PER_LAYER
                  if not name.startswith(("trace.", "quality."))),
              f"{w.name}: every per-layer metric computed")
    changed = [k for k, v in before.items() if current(k) is not v]
    check(not changed, f"module attributes restored after tracing {changed}")


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == list(run.PER_LAYER), "BENCHMARK.json per_layer matches run.py")


def test_without_program():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hk_quadric",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"no program: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")


def main() -> int:
    run.require_program()
    docs = test_workloads()
    test_off_by_one(docs)
    test_traced_run()
    test_benchmark_json()
    test_without_program()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
