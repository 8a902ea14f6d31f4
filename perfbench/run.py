"""The homotopes benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload lts-sweep --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A run is one client in one process: each case starts after the
previous one returns.  It

1. times the workload's set-up in fresh interpreters (import homotopes,
   generate the inputs from ``--seed``, build the cached carrier spaces),
2. repeats the workload's case list a fixed number of passes, chosen from
   ``--seconds`` and the pass time the workload had when the benchmark was
   defined, so both sides of a comparison measure the same work,
3. checks every verdict, that outputs are identical across passes and, at
   the default seed, that their digests match ``digests.json``,
4. prints every metric with its unit, then one JSON result line.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced passes with passes traced by ``tracer.py``
and reports the per-layer metrics, the tracing overhead and the layer
probes.  Traces and run records go to ``.perfbench_out/``.  A failed case or
output mismatch makes the exit code 1; a missing program makes it 2.

Tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 42
SETUP_RUNS = 7
# wall seconds of one pass when the benchmark was defined (2-core Xeon)
NOMINAL_PASS_S = {"lts-sweep": 9.5, "exact-identities": 2.5, "cli-tables": 16.5}
MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def passes_for(workload: str, seconds: float, trace: bool) -> int:
    n = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    # a traced run alternates untraced and traced passes: two of each at least
    return max(n, 4) if trace else n


def nearest_rank(sorted_values, p: float) -> float:
    idx = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[idx]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return TAIL_PERCENTILES[-1]


def import_program():
    """Import homotopes from this checkout's ``src``; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "homotopes", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/homotopes is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import homotopes
    if not os.path.abspath(homotopes.__file__).startswith(SRC + os.sep):
        print(f"error: homotopes imported from {homotopes.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# -- set-up -------------------------------------------------------------------


def setup_child(workload: str, seed: int):
    import_program()
    from workloads import WORKLOADS
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        WORKLOADS[workload](seed, tmp)


def time_setup(workload: str, seed: int) -> list:
    """Wall seconds of ``SETUP_RUNS`` fresh interpreters doing the set-up."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up of {workload} exited {proc.returncode}")
    return times


# -- metadata -------------------------------------------------------------------


def _blas_threads():
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_digest():
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "homotopes")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _reference_loop_ms() -> float:
    """Fastest of 5 runs of a fixed pure-Python loop: compare it across runs
    to tell drift in the machine's speed from a change in the program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def run_metadata(args, passes: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "git_commit": _git_commit(),
        "src_sha256": _source_digest(), "reference_loop_ms": _reference_loop_ms(),
    }


# -- the measured loop ------------------------------------------------------------


class Run:
    """Passes over one workload's cases, with the correctness gate."""

    def __init__(self, workload: str, cases, expected=None, tracer=None):
        """``expected``: case id -> output digest, or None to skip that check."""
        self.workload, self.cases, self.expected, self.tracer = workload, cases, expected, tracer
        self.first = {}  # case id -> digest of its first pass
        self.attempted = self.failed = 0
        self.failures = []
        # traced? -> case id -> [(wall seconds, CPU seconds) per pass]
        self.samples = {False: {c.id: [] for c in cases}, True: {c.id: [] for c in cases}}
        self.pass_wall = {False: [], True: []}

    def check(self, case_id: str, ok, data: bytes):
        digest = hashlib.sha256(data).hexdigest()
        first = self.first.setdefault(case_id, digest)
        if ok is not True:
            return "verdict is not a pass"
        if digest != first:
            return "output differs from the first pass"
        if self.expected is not None and self.expected.get(case_id) != digest:
            return "output digest differs from digests.json"
        return None

    def one_pass(self, traced: bool):
        tracer = self.tracer if traced else None
        if tracer:
            tracer.install()
        clock, cpu_clock = time.perf_counter, time.process_time
        try:
            wall = clock()
            for case in self.cases:
                self.attempted += 1
                if tracer:
                    tracer.case = case.id
                start, cpu = clock(), cpu_clock()
                try:
                    ok, data = case.run()
                    problem = None
                except Exception:
                    problem = traceback.format_exc(limit=3)
                self.samples[traced][case.id].append((clock() - start, cpu_clock() - cpu))
                problem = problem or self.check(case.id, ok, data)
                if problem:
                    self.failed += 1
                    self.failures.append((case.id, problem))
                    print(f"FAIL {self.workload} {case.id}: {problem}", file=sys.stderr)
            self.pass_wall[traced].append(clock() - wall)
        finally:
            if tracer:
                tracer.case = None
                tracer.uninstall()

    def latencies(self) -> list:
        """Untraced case wall seconds, pooled over passes."""
        return [w for per_case in self.samples[False].values() for w, _ in per_case]

    def best_pass(self, traced: bool, clock: int = 0) -> float:
        """A pass's time as the sum of each case's fastest pass (clock 0: wall,
        1: CPU).  Load from other processes on a shared machine only ever adds
        time, and a burst of it rarely slows every pass of one case."""
        return sum(min(s[clock] for s in per_case) for per_case in self.samples[traced].values())

    def end_to_end(self, setup_times) -> dict:
        lat = sorted(self.latencies())
        self.tail_p = tail_percentile(len(lat))
        return {
            "verdict_s": self.best_pass(False),
            "cpu_s": self.best_pass(False, clock=1),
            "case_p50_ms": 1e3 * nearest_rank(lat, 50),
            "case_tail_ms": 1e3 * nearest_rank(lat, self.tail_p),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, setup_layers: dict, probes: dict) -> dict:
        traced = len(self.pass_wall[True])
        totals = self.tracer.snapshot()
        out = {k: v / traced for k, v in totals.items()}
        rows = totals.get("kernel.echelon.rows", 0)
        out["kernel.echelon.rank_ratio"] = totals.get("kernel.echelon.rank", 0) / rows if rows else 0.0
        out["kernel.precision_errors"] = out.pop("kernel.precision_error.calls", 0)
        out["families.spaces.self_s"] = setup_layers.get("families.spaces.self_s", 0.0)
        out["trace.verdict_s"] = self.best_pass(True)
        out["trace.overhead_frac"] = out["trace.verdict_s"] / self.best_pass(False) - 1
        out.update(probes)
        return out


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    import_program()
    from workloads import WORKLOADS

    declared = declared_metrics(args.trace)
    passes = passes_for(args.workload, args.seconds, args.trace)
    meta = run_metadata(args, passes)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    setup_times = time_setup(args.workload, args.seed)
    tracer = None
    setup_layers = {}
    if args.trace:
        from layers import COUNTERS, package_layers
        from tracer import Tracer
        tracer = Tracer(*package_layers(), counters=COUNTERS)
        tracer.install()
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        try:
            cases = WORKLOADS[args.workload](args.seed, tmp)
        finally:
            if tracer:
                setup_layers = tracer.snapshot()
                tracer.uninstall()
                tracer.reset()
        expected = None
        if args.seed == DEFAULT_SEED and not args.record_digests:
            with open(DIGESTS) as fh:
                expected = json.load(fh).get(args.workload, {})
        run = Run(args.workload, cases, expected, tracer)
        # on a machine much slower than the nominal one, stop early so a run
        # stays bounded in time (passes 0 and 1 always run: one of them traced)
        deadline = time.perf_counter() + max(3 * args.seconds, 60)
        for i in range(passes):
            if i >= 2 and time.perf_counter() > deadline:
                print(f"note: stopped after {i} of {passes} passes (3x --seconds)", file=sys.stderr)
                break
            run.one_pass(traced=bool(args.trace) and i % 2 == 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = run.end_to_end(setup_times)
    if args.trace:
        from probes import run_probes
        metrics = run.per_layer(setup_layers, run_probes(args.seed))
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), meta)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    lat = run.latencies()
    print(f"cases: {len(cases)} per pass, {len(run.pass_wall[False])} untraced and "
          f"{len(run.pass_wall[True])} traced passes; case_tail_ms is p{run.tail_p:g} "
          f"of {len(lat)} samples")
    print(f"failed_frac {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted})")
    for name, unit in declared.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in declared.items()}}
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"meta": meta, "result": result, "failures": run.failures,
                   "setup_s": setup_times, "pass_wall_s": run.pass_wall,
                   "case_s": {k: [w for w, _ in v] for k, v in run.samples[False].items()}},
                  fh, indent=1)
    if args.record_digests:
        record_digests(args, run)
    print(json.dumps(result), flush=True)
    return 0 if run.failed == 0 else 1


def record_digests(args, run):
    if args.seed != DEFAULT_SEED:
        raise SystemExit(f"--record-digests needs the default seed {DEFAULT_SEED}")
    if run.failed:
        raise SystemExit("not recording digests of a run with failed cases")
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            table = json.load(fh)
    table[args.workload] = run.first
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args) -> int:
    """Every workload, one at a time, each in its own process."""
    from workloads import WORKLOADS
    import_program()
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results), flush=True)
    return code


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write this run's output digests to digests.json (default seed)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_child(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
