"""pommkit benchmark: one closed-loop workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload concentration_study --seed 1 --seconds 20 --trace 0

The benchmark imports pommkit from ``src/`` of the checkout it sits in,
sets the workload up three times (input generation from ``--seed``,
oracle set-up, one warm-up task), then runs one task after another for
``--seconds`` seconds and checks every task's outputs against its oracle.
Tasks are timed in CPU seconds of the process and reported at reference
machine speed (see ``Probes``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced tasks and reports the per-layer
metrics of the traced ones (see ``spans.py``). Human-readable lines come
first; the last line of standard output is the JSON result. The full
record (environment, per-task times, spans) is written under
``.perfbench/results/``.
"""
from __future__ import annotations

import time

_C0 = time.process_time()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("concentration_study", "mh_near_unit_root", "pf_sv", "oracle_checks")

END_TO_END = {"tasks_per_min": "1/min", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny sizes for the smoke check")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be non-negative and --seconds positive")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_library():
    """Import numpy and pommkit from this checkout's sources."""
    pkg = ROOT / "src" / "pommkit"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pommkit sources at {pkg.relative_to(ROOT)}; run from a full checkout")
    # one process drives the load with a one-thread BLAS pool, so the
    # process CPU time is the program's work and no thread waits on another
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import pommkit

    if Path(pommkit.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: pommkit was imported from {pommkit.__file__}, not from this checkout")


def blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit():
    """Commit of the checkout, read from .git without running git (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = blas_threads()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "loop": "closed, one caller",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": nproc(),
        "blas_threads_within_nproc": threads is None or threads <= nproc(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# Tasks are timed in CPU seconds of the benchmark process, so time the
# process spends waiting for a core does not count. The load is one
# process with a one-thread BLAS pool, so that is all the program's work.
# CPU time still drifts with the host (shared caches, clock speed,
# stolen cycles the guest counts as its own): on a 2-core x86_64 VM a
# fixed kernel took 17 to 46 ms of CPU within one minute. So between
# tasks the benchmark times a probe, a fixed kernel that does not touch
# pommkit, and reports each task at reference speed: its CPU time x the
# probe's reference time / the median probe time just before and just
# after it. Interpreted code and memory-bound code drift by different
# amounts, so each workload's probe is made of the kinds of work that
# workload does (``probe`` in workloads.py). A change to pommkit moves
# calibrated and raw numbers alike.
# share of the measured window spent in probes, between tasks
CALIBRATION_SHARE = 0.1
PROBES_PER_GAP = 3


def _interp():
    """A scalar filter-like recursion in the interpreter."""
    m, p = 0.0, 1.0
    for _ in range(70_000):
        m = 0.9 * m + 0.1
        p = 0.81 * p + 1.0
        s = p + 0.2
        m = m + p / s * (0.5 - m)
        p = p - p * p / s


def _small_arrays():
    """Many numpy calls on tiny arrays, like a stationary-covariance series."""
    import numpy as np

    a = np.array([[0.9, 0.0], [0.9, 0.0]])
    t = np.eye(2)
    for _ in range(1_000):
        t = a @ t @ a.T + np.eye(2)
        np.linalg.norm(t)


def _dense():
    """Exp over a 2001-node grid and a matrix-vector product, in place to
    keep the peak memory at one 32 MB array."""
    import numpy as np

    g = np.linspace(-3.0, 3.0, 2001)
    d = np.subtract.outer(g, 0.9 * g)
    np.square(d, out=d)
    d *= -0.5
    np.exp(d, out=d)
    np.ones(2001) @ d


# probe part -> (kernel, its median CPU time over the probes of 20 runs
# on a 2-core x86_64 VM, the reference speed)
PROBE_PARTS = {
    "interp": (_interp, 0.015),
    "small_arrays": (_small_arrays, 0.0095),
    "dense": (_dense, 0.0255),
}


class Probes:
    """Probe CPU times in gaps between tasks, about CALIBRATION_SHARE of the window."""

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [PROBE_PARTS[name][0] for name in parts]
        self.ref_s = sum(PROBE_PARTS[name][1] for name in parts)
        self.gaps: list[list[float]] = []
        self.part_times: list[list[list[float]]] = []
        self.start = time.perf_counter()

    def probe(self) -> list[float]:
        times = []
        for part in self.parts:
            c0 = time.process_time()
            part()
            times.append(time.process_time() - c0)
        return times

    def gap(self):
        gap, parts = [], []
        spent = sum(map(sum, self.gaps))
        while len(gap) < PROBES_PER_GAP or spent + sum(gap) < CALIBRATION_SHARE * (time.perf_counter() - self.start):
            parts.append(self.probe())
            gap.append(sum(parts[-1]))
        self.gaps.append(gap)
        self.part_times.append(parts)

    def scale(self, *gaps) -> float:
        """Factor to reference speed: < 1 when the probes ran slower than the reference."""
        return self.ref_s / statistics.median([c for g in gaps for c in g])


@dataclass
class Record:
    index: int
    traced: bool
    seconds: float | None  # process CPU time; None when the task raised
    wall_s: float | None
    failed: list
    ref_s: float | None = None  # seconds at reference speed


def run_task(wl, ctx, i, tracer, traced, null):
    """Prepare, time and check task ``i``; exceptions count as a failed task."""
    tracer.task = i
    tr = tracer if traced else null
    try:
        prep = wl.prepare(ctx, i, tracer)
        gc.collect()  # start every task from the same collector state
        t0, c0 = time.perf_counter(), time.process_time()
        with tr.span("task"):
            out = wl.task(ctx, prep, tr)
        seconds, wall_s = time.process_time() - c0, time.perf_counter() - t0
        failed = wl.check(ctx, prep, out)
    except Exception:
        traceback.print_exc()
        return Record(i, traced, None, None, ["exception"]), None
    return Record(i, traced, seconds, wall_s, failed), (prep, out)


def tail_percentile(times):
    """Highest percentile with at least ten tasks beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import_s = time.process_time() - _C0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import LAYERS, NULL, Tracer, summarize
    from workloads import PER_LAYER, WORKLOADS

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    wl = WORKLOADS[args.workload](tiny=args.size == "tiny")
    tracer = Tracer() if args.trace else NULL
    tmp = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    try:
        # set-up: input generation, oracle set-up and one warm-up task,
        # repeated for a median; the import happens once per process
        probes = Probes(wl.probe)
        reps, warms = [], []
        for _ in range(SETUP_REPEATS):
            probes.gap()
            c0 = time.process_time()
            ctx = wl.setup(args.seed, tracer, tmp)
            reps.append(time.process_time() - c0)
            warm, _ = run_task(wl, ctx, 0, NULL, False, NULL)
            warms.append(warm)

        records, done = [], []
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            i += 1
            probes.gap()
            rec, result = run_task(wl, ctx, i, tracer, bool(args.trace) and i % 2 == 1, NULL)
            records.append(rec)
            if result is not None and not rec.failed:
                done.append(result)
            if time.perf_counter() >= deadline and (not args.trace or i >= 2):
                break
        probes.gap()
        run_failed = wl.finish(ctx, done)
        gaps = probes.gaps
        setup_raw = [s + (w.seconds or 0.0) for s, w in zip(reps, warms)]
        setup_ref = [t * probes.scale(gaps[k], gaps[k + 1]) for k, t in enumerate(setup_raw)]
        setup_s = import_s * probes.scale(gaps[0]) + statistics.median(setup_ref)
        first = SETUP_REPEATS  # index of the gap before the first measured task
        for k, r in enumerate(records):
            if r.seconds is not None:
                r.ref_s = r.seconds * probes.scale(gaps[first + k], gaps[first + k + 1])

        attempted = len(records)
        failed = attempted if run_failed else sum(1 for r in records if r.failed)
        correct = not any(w.failed for w in warms) and failed == 0
        for r in warms + records:
            if r.failed:
                print(f"task {r.index} failed: {', '.join(r.failed)}", file=sys.stderr)
        if run_failed:
            print(f"run checks failed: {', '.join(run_failed)}", file=sys.stderr)

        plain = [r for r in records if not r.traced and r.seconds is not None]
        if not plain:
            raise SystemExit("perfbench: no task completed")
        median_s = statistics.median(r.ref_s for r in plain)
        raw_s = statistics.median(r.seconds for r in plain)
        traced_s = [r.ref_s for r in records if r.traced and r.seconds is not None]
        name, unit, per_task, per = wl.throughput
        info = {
            name: (per_task * per / median_s, unit),
            f"{name}_raw": (per_task * per / raw_s, unit),
            "task_s_p50_raw": (raw_s, "s"),
            "task_wall_s_p50": (statistics.median(r.wall_s for r in plain), "s"),
            "setup_s_raw": (import_s + statistics.median(setup_raw), "s"),
            "probe_ms": (1e3 * probes.ref_s / probes.scale(*gaps), "ms"),
            "ops_failed_frac": (failed / attempted, "ratio"),
        }
        tail = tail_percentile([r.seconds for r in plain])
        if tail is not None:
            info[f"task_s_p{tail[0]:.0f}_raw"] = (tail[1], "s")

        if args.trace:
            summ = summarize(tracer.spans)
            wall = summ.wall
            metrics = dict.fromkeys(PER_LAYER, 0.0)
            for layer in LAYERS:
                own = summ.layer_self.get(layer, 0.0)
                metrics[f"{layer}.self_s"] = summ.per_task(own)
                metrics[f"{layer}.calls"] = summ.per_task(summ.layer_calls.get(layer, 0))
                metrics[f"{layer}.self_share"] = own / wall if wall else 0.0
            metrics["bench.callback_share"] = summ.layer_self.get("bench", 0.0) / wall if wall else 0.0
            metrics["trace.unattributed_share"] = summ.unattributed / wall if wall else 0.0
            metrics["trace.overhead_share"] = statistics.median(traced_s) / median_s - 1.0 if traced_s else 0.0
            metrics["trace.spans_per_task"] = summ.per_task(summ.spans_in_tasks)
            metrics["trace.tasks"] = float(summ.tasks)
            models = summ.layer_self.get("models", 0.0)
            specs = summ.layer_calls.get("models", 0)
            metrics["models.specs_built"] = summ.per_task(specs)
            metrics["models.build_ms_per_spec"] = 1e3 * models / specs if specs else 0.0
            metrics["models.build_share"] = metrics["models.self_share"]
            extra = wl.layer_metrics(ctx, summ)
            if hasattr(wl, "probe_builds"):
                extra.update(wl.probe_builds(tracer))
            unknown = set(extra) - set(PER_LAYER)
            if unknown:
                raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
            metrics.update(extra)
            units = PER_LAYER
        else:
            metrics = {
                "tasks_per_min": 60.0 / median_s,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END

        for key, (value, u) in info.items():
            print(f"metric {key} {value:.6g} {u}")
        print(f"tasks {attempted} attempted, {failed} failed, {len(plain)} untraced, {len(traced_s)} traced")
        for key, value in metrics.items():
            print(f"{'layer' if args.trace else 'metric'} {key} {value:.6g} {units[key]}")

        result = {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        record = {
            "env": env,
            "result": result,
            "info": {k: {"value": float(v), "unit": u} for k, (v, u) in info.items()},
            "setup": {"import_s": import_s, "setup_s": reps, "warmup_s": [w.seconds for w in warms]},
            "calibration_s": gaps,
            "calibration_parts_s": {"parts": list(wl.probe), "gaps": probes.part_times},
            "run_failed": run_failed,
            "tasks": [asdict(r) for r in warms + records],
        }
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
        if args.trace:
            with open(results / f"{stem}-spans.jsonl", "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps({**asdict(s), "layer": s.layer}) + "\n")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
