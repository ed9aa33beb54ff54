"""End-to-end benchmark of locmax: four workloads, one process each.

Run from the repository root:

    python3 perfbench/run.py --workload suite-rgg16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; ``--trace 1`` makes a fixed number of ops untraced and
then the same ops traced, and reports the per-layer metrics instead. Every
op's output is checked; a wrong output counts in ``failed``. Lines before
the last one start with ``#`` and describe the machine and the run.
``--smoke`` runs every workload at a tiny size, checks that every metric
named in BENCHMARK.json is printed with its unit, and checks that a
corrupted matching is counted as a failed op.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# One thread per workload process: pin every numeric library before numpy
# loads. The bsp engine's p=4 workers are logical and start no threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 3
# Ops per phase of a traced run; fixed so that its counters repeat exactly.
TRACE_OPS = {"suite-rgg16": 3, "engines-unit16": 12, "ingest-rgg16": 4, "audit-small": 6}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import locmax from this checkout's src/ and nowhere else."""
    if not (SRC / "locmax" / "__init__.py").is_file():
        fail(f"no locmax package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import locmax
    if Path(locmax.__file__).resolve().parent != (SRC / "locmax").resolve():
        fail(f"imported locmax from {locmax.__file__}, not from {SRC}")


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "code_sha256": code_digest(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Determinism:
    """Structural records of ops must repeat exactly: within a run for ops
    sharing a record key, and across runs of the same code with the same
    workload seed and sizes. The records persist in a state file per code
    digest, so runs of different commits each keep their own."""

    def __init__(self, workload: str, seed: int, sizes: dict) -> None:
        tag = "".join(f"-{k}{v}" for k, v in sorted(sizes.items()))
        self.path = ROOT / ".perfbench_state" / f"{workload}-s{seed}{tag}-{code_digest()}.json"
        self.known: dict[str, str] = {}
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            pass

    def check(self, key: int, record: tuple) -> str | None:
        digest = hashlib.sha256(repr(record).encode()).hexdigest()
        seen = self.known.setdefault(str(key), digest)
        return None if seen == digest else f"record of key {key} drifted"

    def save(self) -> None:
        self.path.parent.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known))
        os.replace(tmp, self.path)


class Runner:
    """Runs ops of one workload, timing, checking and counting them.

    The calibration kernel runs before the first op and after every op;
    op ``i`` is rescaled by the mean of the kernel times on either side.
    """

    def __init__(self, workload, det: Determinism, kernel, tracer=None) -> None:
        self.w = workload
        self.det = det
        self.kernel = kernel
        self.tracer = tracer
        self.times: list[float] = []
        self.cals: list[float] = []
        self.edges = 0
        self.failed = 0

    def op(self, i: int) -> None:
        if not self.cals:
            self.cals.append(self.kernel.measure())
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            try:
                out = self.w.run(i)
            finally:
                dt = time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.active = False
            drift = self.det.check(self.w.record_key(i), self.w.check(i, out))
            if drift:
                raise RuntimeError(drift)
        except Exception:  # noqa: BLE001 - every op failure is counted, not fatal
            self.failed += 1
            print(f"# op {i} failed:\n# " + traceback.format_exc().replace("\n", "\n# "),
                  file=sys.stderr)
        self.times.append(dt)
        self.edges += self.w.edges(i)
        self.cals.append(self.kernel.measure())

    def until(self, first: int, seconds: float) -> None:
        """Run ops first, first+1, ... for ``seconds``."""
        deadline = time.perf_counter() + seconds
        i = first
        while True:
            self.op(i)
            i += 1
            if time.perf_counter() >= deadline:
                return

    @property
    def attempted(self) -> int:
        return len(self.times)

    def scaled(self) -> list[float]:
        """Op times rescaled to the machine's nominal speed."""
        return [self.kernel.rescale(t, a, b)
                for t, a, b in zip(self.times, self.cals, self.cals[1:])]

    def edges_per_s(self) -> float:
        return self.edges / sum(self.scaled())


def set_up(w, det: Determinism, kernel, reps: int, import_s: float) -> float:
    """Prepare inputs and run the warm-up op 0, ``reps`` times; the reference
    is computed once, untimed. Returns the import time plus the median
    set-up time, rescaled like op times. Any failure here is fatal."""
    cal = kernel.measure()
    import_s = kernel.rescale(import_s, cal, cal)
    times = []
    for rep in range(reps):
        t0 = time.perf_counter()
        w.prepare()
        t1 = time.perf_counter()
        if rep == 0:
            w.reference()
        t2 = time.perf_counter()
        out = w.run(0)
        t3 = time.perf_counter()
        drift = det.check(w.record_key(0), w.check(0, out))
        if drift:
            raise RuntimeError(f"warm-up op: {drift}")
        cal_after = kernel.measure()
        times.append(kernel.rescale((t1 - t0) + (t3 - t2), cal, cal_after))
        cal = cal_after
    return import_s + statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 sizes: dict | None = None, corrupt_op: int | None = None) -> dict:
    import calibrate
    import workloads

    sizes = sizes or {}
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.WORKLOADS[name](seed, work, **sizes)
        if corrupt_op is not None:
            w.corrupt_ops.add(corrupt_op)
        det = Determinism(name, seed, sizes)
        kernel = calibrate.Kernel()
        setup_s = set_up(w, det, kernel, 1 if trace else SETUP_REPS, import_s)
        if trace:
            metrics, runners = traced_run(w, det, kernel, TRACE_OPS[name])
        else:
            r = Runner(w, det, kernel)
            r.until(1, seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "edges_per_s": (r.edges_per_s(), "edges/s"),
                "op_ms_p50": (1000.0 * statistics.median(r.scaled()), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "quality_ratio": (w.quality(), "ratio"),
            }
            runners = [r]
        det.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    if trace:
        metrics["failed_op_ratio"] = (failed / attempted, "ratio")
    print(f"# workload {name}: {attempted} ops (op_ms_p50 over {runners[-1].attempted}), "
          f"{failed} failed, failed_op_ratio {failed / attempted:.4f}")
    for r in runners:
        print("# op_ms wall: " + " ".join(f"{1000.0 * t:.0f}" for t in r.times)
              + "; rescaled: " + " ".join(f"{1000.0 * t:.0f}" for t in r.scaled())
              + "; kernel: " + " ".join(f"{1000.0 * t:.1f}" for t in r.cals)
              + f"; wall edges/s {r.edges / sum(r.times):.6g}"
              + f"; wall op_ms_p50 {1000.0 * statistics.median(r.times):.6g}")
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(w, det: Determinism, kernel, k: int):
    """Ops 1..k untraced, then the same ops traced. The determinism gate
    compares each traced op's record with its untraced twin."""
    from tracer import MODULES, Tracer, layer_metrics

    plain = Runner(w, det, kernel)
    for i in range(1, k + 1):
        plain.op(i)
    t = Tracer()
    traced = Runner(w, det, kernel, t)
    with t:
        for i in range(1, k + 1):
            traced.op(i)
    op_s = sum(traced.times)
    metrics = layer_metrics(t, k, op_s, plain.edges_per_s() / traced.edges_per_s())
    # The untraced ops' raw wall figures and the kernel times they were
    # rescaled by, so that a change that moves the kernel shows.
    metrics["wall.edges_per_s"] = (plain.edges / sum(plain.times), "edges/s")
    metrics["wall.op_ms_p50"] = (1000.0 * statistics.median(plain.times), "ms")
    metrics["calibrate.kernel_ms"] = (1000.0 * statistics.median(plain.cals), "ms")

    print(f"# trace absent: {t.absent or 'none'}; hook errors: {t.hook_errors or 'none'}")
    shares = {m: t.module_self_s(m) / op_s for m in MODULES}
    shares["unattributed"] = 1.0 - t.total_self_s() / op_s
    print("# self-time shares: " + ", ".join(
        f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda kv: -kv[1])))
    top = sorted(t.self_s.items(), key=lambda kv: -kv[1])[:10]
    print("# top functions: " + ", ".join(f"{f} {s / op_s:.1%}" for f, s in top))
    return metrics, [plain, traced]


def smoke(import_s: float) -> int:
    """Every workload once at a tiny size, traced and untraced; then one op
    fed a matching with an edge dropped, which must count as failed."""
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for item in spec["workloads"]:
        name = item["name"]
        sizes = workloads.SMOKE_SIZES[name]
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            res = run_workload(name, 0, 0.5, trace, import_s, sizes)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units disagree with BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace}: {res['failed']} failed ops")
    res = run_workload("engines-unit16", 0, 0.5, False, import_s,
                       workloads.SMOKE_SIZES["engines-unit16"], corrupt_op=1)
    if res["correct"] or res["failed"] != 1:
        problems.append(f"corrupted matching not counted as one failed op: {res}")
    problems += missing_target_check()
    for p in problems:
        print(f"# SMOKE FAIL {p}")
    print("# smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def missing_target_check() -> list[str]:
    """A traced function that no longer exists is reported, not a crash."""
    import locmax.tiebreak
    from tracer import Tracer
    saved = locmax.tiebreak.key_ranks
    del locmax.tiebreak.key_ranks
    try:
        with Tracer() as t:
            if "tiebreak.key_ranks" not in t.absent:
                return ["a removed tiebreak.key_ranks was not reported as absent"]
    finally:
        locmax.tiebreak.key_ranks = saved
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    import_program()
    import workloads  # imports locmax and numpy, counted in setup_s
    import_s = time.perf_counter() - T_START
    if args.smoke:
        return smoke(import_s)
    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        fail("--seed must be >= 0")
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
