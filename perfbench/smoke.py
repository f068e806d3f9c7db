"""Tiny-size smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes for one second, untraced and traced,
and verifies that each run passes its oracle checks and prints exactly
the metrics BENCHMARK.json declares, with their units. Then checks that
the benchmark refuses to run, without printing a result, from a copy
that holds only BENCHMARK.json and the benchmark's own files. Exits 0
when everything holds. Takes well under a minute on two cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(res)}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        problems.append(f"{where}: checks failed {res['failed']}/{res['attempted']}\n{proc.stderr[-2000:]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    if not all(isinstance(v["value"], float) for v in res["metrics"].values()):
        problems.append(f"{where}: non-float metric value")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, dirs_exist_ok=True, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            return ["a copy without src/ still ran or printed a result"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_refuses_without_sources(spec)
    print(f"refuses without sources: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
