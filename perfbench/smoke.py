#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny scale, untraced and traced, through run.py and
checks that:
  - every metric BENCHMARK.json declares is printed, with its declared unit;
  - the correctness gate passes;
  - serve.cache_hit_ratio reads 0 on serve-cold and 1 on serve-hot;
  - the traced self times account for the daemon's engine time, and the
    re-called build layers for build_s, within the shares stated below.
Takes about four minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = 0.1
SECONDS = 4
# Replay self time of tokenize + cache + print + exec over the daemon's
# rs_total_ns for the same requests.
ENGINE_COVERAGE = (0.3, 3.0)
# Re-called build layers over the build_s of the same run.
BUILD_COVERAGE = (0.6, 1.4)
HIT_RATIO = {"serve-cold": 0.0, "serve-hot": 1.0}


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(SECONDS), "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"{workload} trace={trace}: exit {done.returncode}"
    return json.loads(lines[-1]), None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, err = run(name, trace)
            if err:
                problems.append(err)
                continue
            where = f"{name} trace={trace}"
            if not result["correct"]:
                problems.append(f"{where}: the correctness gate failed")
            got = result["metrics"]
            for m in declared:
                if m["name"] not in got:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{where}: metric {m['name']} has unit "
                                    f"{got[m['name']]['unit']}, declared {m['unit']}")
            if trace == 1 and result["correct"]:
                value = lambda k: got[k]["value"]
                if value("serve.cache_hit_ratio") != HIT_RATIO[name]:
                    problems.append(f"{where}: serve.cache_hit_ratio is "
                                    f"{value('serve.cache_hit_ratio')}, want {HIT_RATIO[name]}")
                lo, hi = ENGINE_COVERAGE
                if not lo <= value("trace.engine_coverage") <= hi:
                    problems.append(f"{where}: trace.engine_coverage "
                                    f"{value('trace.engine_coverage'):.3f} outside {ENGINE_COVERAGE}")
                lo, hi = BUILD_COVERAGE
                if not lo <= value("pipeline.coverage") <= hi:
                    problems.append(f"{where}: pipeline.coverage "
                                    f"{value('pipeline.coverage'):.3f} outside {BUILD_COVERAGE}")
            print(f"ok   {where}" if not any(p.startswith(where) for p in problems)
                  else f"FAIL {where}", flush=True)
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
