"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20

runs ``run.py --trace 0`` once per workload and seed, one run at a time,
and prints for every end-to-end metric its median and its spread: the
distance between the first and third quartile (``statistics.quantiles``
with ``n=4``) as a share of the median, next to the metric's bound from
BENCHMARK.json. Every run's result is kept in
``.perfbench/spread-<first seed>-<last seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict = {}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds)
            results.append({"seed": seed, **res})
            ok &= res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        runs[workload] = results
        if len(results) >= 2:
            for name, bound in bounds.items():
                med, rel = spread([r["metrics"][name]["value"] for r in results])
                print(f"  {workload} {name}: median {med:.5g}, spread {rel:.3f} (bound {bound}, third {bound / 3:.3f})",
                      flush=True)
    out = ROOT / ".perfbench" / f"spread-{args.seeds[0]}-{args.seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
