"""Seeded benchmark for horolattice: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload d2-orbit-cusp --seed 0 --seconds 20 --trace 0

With --trace 0 it runs one warm-up iteration, then times whole
iterations of the workload for about --seconds while sampling a fixed
reference kernel, and reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced iterations and reports
the per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
Records (digests, typed errors, spans) go to .perfbench/ in the root.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Set-ups per untraced run (this process plus child processes); setup_s is their median.
SETUP_REPEATS = 3
#: A traced run needs this many traced iterations to compare exact counters.
TRACED_MIN = 2
#: Seconds one run of the reference kernel takes at a typical speed of a
#: shared 2-core Xeon VM (the median over 40 ten-seed benchmark runs);
#: untraced iteration and set-up times are scaled to this host speed.
REFERENCE_S = 0.004


def load_program() -> None:
    """Import horolattice from this checkout's src/, or exit 2."""
    if not (SRC / "horolattice" / "__init__.py").is_file():
        print(f"no horolattice sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import horolattice

    if Path(horolattice.__file__).resolve().parent != SRC / "horolattice":
        print(f"imported horolattice from {horolattice.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _stage(exc: BaseException) -> str:
    """Innermost package function on the traceback, as module.function."""
    stage = "benchmark"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("horolattice."):
            stage = f"{module.removeprefix('horolattice.')}.{frame.f_code.co_name}"
    return stage


class Reference:
    """A fixed kernel sampled before, during and after each timed iteration.

    On a shared host a core's speed changes by a third and more, in
    phases from a fraction of a second to minutes, and each iteration
    slows with its core.  While armed, a SIGALRM every PERIOD seconds
    runs the kernel in the main thread, so the samples see the same core
    at the same moments as the iteration.  The kernel is pure Python: an
    integer loop, then reads at random places of a 2 MB list of floats.
    The reads make it lose its caches to other tenants as the orbit
    workloads do; against the loop alone, d2-orbit-cusp slowed about 1.3
    times as much.  It calls no package code and keeps no object it
    makes, so a change to the program cannot move it.
    """

    PERIOD = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.random(1 << 16).tolist()
        self.places = rng.integers(0, 1 << 16, 18_000).tolist()
        self.armed = False
        self.samples: list = []  # (wall s, cpu s) of each kernel run
        self.inner = (0.0, 0.0)  # kernel wall and CPU seconds inside the last iteration

    def sample(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        acc = 0
        for i in range(30_000):
            acc += (i * i) % 7
        total = 0.0
        values = self.values
        for i in self.places:
            total += values[i]
        self.samples.append((time.perf_counter() - w0, time.process_time() - c0))

    def _on_alarm(self, signum, frame) -> None:
        if self.armed:
            self.sample()

    def start(self) -> None:
        """Sample once, then every PERIOD seconds until `stop`."""
        self.samples = []
        self.sample()
        # the handler stays installed: an alarm already raised when `stop`
        # disarms must find a handler, not the default action, which exits
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self) -> None:
        """Disarm, sample once more, and set `inner` to what the kernel took meanwhile."""
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        inner = self.samples[1:]
        self.inner = (sum(w for w, _ in inner), sum(c for _, c in inner))
        self.sample()

    @property
    def mean(self) -> tuple:
        """Mean wall and CPU seconds of one kernel run over the last iteration's samples."""
        return tuple(statistics.fmean(column) for column in zip(*self.samples))


class Runner:
    """One run of one workload: iterations, checks, failures and records."""

    def __init__(self, workload, state: dict):
        from horolattice.errors import (
            BudgetExceededError,
            ConfigError,
            DeterminantError,
            EmptyLocalizationError,
            PrecisionError,
        )

        self.typed = (
            PrecisionError, BudgetExceededError, DeterminantError, EmptyLocalizationError, ConfigError
        )
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.verdicts: dict = {}  # fingerprint -> (Verdict, digests)
        self.walls: list = []  # untraced timed iterations
        self.cpus: list = []
        self.refs: list = []  # mean reference kernel (wall, CPU) seconds during each of them
        self.traced_walls: list = []
        self.warmup_wall = None

    def iterate(self, tracer=None, reference=None, timed=True):
        """One iteration; returns its fingerprint, or None on a typed error.

        An untraced timed iteration adds its wall and CPU seconds to
        `walls` and `cpus`; with a `reference` they exclude the kernel
        runs inside it, and the mean kernel times go to `refs`.  A
        traced iteration adds its wall seconds to `traced_walls`.
        """
        from layers import install

        self.attempted += 1
        try:
            if tracer is not None:
                install(tracer)
            if reference is not None:
                reference.start()
            w0, c0 = time.perf_counter(), _cpu_seconds()
            try:
                out = self.workload.run(self.state)
            finally:
                wall, cpu = time.perf_counter() - w0, _cpu_seconds() - c0
                if reference is not None:
                    reference.stop()
                    wall, cpu = wall - reference.inner[0], cpu - reference.inner[1]
                if tracer is not None:
                    tracer.restore()
        except self.typed as exc:
            self.failed += 1
            self.errors.append(
                {
                    "class": type(exc).__name__,
                    "stage": _stage(exc),
                    "workload": self.workload.name,
                    "iteration": self.attempted,
                    "message": str(exc),
                }
            )
            return None
        if tracer is not None:
            self.traced_walls.append(wall)
        elif not timed:
            self.warmup_wall = wall
        else:
            self.walls.append(wall)
            self.cpus.append(cpu)
            if reference is not None:
                self.refs.append(reference.mean)
        fp = self.workload.fingerprint(out)
        if fp not in self.verdicts:
            self.verdicts[fp] = self.workload.check(self.state, out)
        if not self.verdicts[fp][0].ok:
            self.failed += 1
        return fp

    @property
    def deterministic(self) -> bool:
        return len(self.verdicts) <= 1

    @property
    def correct(self) -> bool:
        return bool(self.verdicts) and self.deterministic and all(v.ok for v, _ in self.verdicts.values())

    @property
    def max_residual_ratio(self) -> float:
        return max((v.max_ratio for v, _ in self.verdicts.values()), default=0.0)

    def record(self) -> dict:
        return {
            "workload": self.workload.name,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "digests": [d for _, d in self.verdicts.values()],
            "check_failures": sorted({f for v, _ in self.verdicts.values() for f in v.failures()}),
            "deterministic": self.deterministic,
            "verify.max_residual_ratio": self.max_residual_ratio,
            "error_rate": self.failed / self.attempted,
            "warmup_wall": self.warmup_wall,
            "walls": self.walls,
            "cpus": self.cpus,
            "refs": self.refs,
            "traced_walls": self.traced_walls,
        }


def timed_setup(workload, seed: int, scratch: str) -> tuple:
    """Set the workload up; returns (state, seconds since process start at the reference speed).

    The kernel is sampled while the inputs are built, as in a timed
    iteration; its runs are left out of the seconds.
    """
    reference = Reference()
    reference.start()
    try:
        state = workload.setup(seed, scratch)
    finally:
        reference.stop()
    elapsed = time.perf_counter() - _T0 - sum(w for w, _ in reference.samples)
    return state, REFERENCE_S * elapsed / reference.mean[0]


def _setup_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure_untraced(runner: Runner, seconds: float) -> dict:
    """Warm up, then time iterations against the reference; returns the end-to-end values.

    peak_rss_mb is read after set-up and the warm-up iteration, before
    later iterations can fragment the heap by amounts that depend on how
    many of them fit in the window.  wall_s and cpu_s are medians over
    the timed iterations of their seconds times REFERENCE_S over the mean
    wall or CPU time of the kernel runs sampled during the iteration.
    """
    runner.iterate(timed=False)
    values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    reference = Reference()
    start = time.perf_counter()
    while runner.attempted < 2 or time.perf_counter() - start < seconds:
        runner.iterate(reference=reference)
    if runner.walls:
        values["wall_s"] = statistics.median(
            REFERENCE_S * w / r for w, (r, _) in zip(runner.walls, runner.refs)
        )
        values["cpu_s"] = statistics.median(
            REFERENCE_S * c / r for c, (_, r) in zip(runner.cpus, runner.refs)
        )
    return values


def measure_traced(runner: Runner, seconds: float) -> tuple:
    """Alternate untraced and traced iterations; returns (layer values, tracers, counters agree)."""
    from layers import EXACT, layer_metrics
    from tracing import Tracer

    tracers = []
    untraced, traced = runner.walls, runner.traced_walls
    start = time.perf_counter()
    while len(traced) < TRACED_MIN or not untraced or time.perf_counter() - start < seconds:
        tracer = Tracer() if len(untraced) > len(traced) else None
        if runner.iterate(tracer) is not None and tracer is not None:
            tracers.append(tracer)
        elif runner.attempted >= 4 * TRACED_MIN and not runner.verdicts:
            break  # every attempt raised; nothing to trace
    per_iter = [layer_metrics(t) for t in tracers]
    agree = all(all(p[k] == per_iter[0][k] for k in EXACT) for p in per_iter)
    values = {}
    for k in per_iter[0] if per_iter else ():
        values[k] = per_iter[0][k] if k in EXACT else statistics.median(p[k] for p in per_iter)
    if traced and untraced:
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["verify.max_residual_ratio"] = runner.max_residual_ratio
    return values, tracers, agree


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    params: dict | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple:
    """Run one workload; returns (result line dict, record dict)."""
    from workloads import WORKLOADS

    spec = benchmark_spec()
    workload = WORKLOADS[workload_name](**(params or {}))
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        state, setup_s = timed_setup(workload, seed, scratch)
        setups = [setup_s]
        runner = Runner(workload, state)
        if trace:
            values, tracers, agree = measure_traced(runner, seconds)
            wanted = spec["per_layer"]
        else:
            setups += [_setup_child(workload_name, seed) for _ in range(setup_repeats - 1)]
            values = measure_untraced(runner, seconds)
            values["setup_s"] = statistics.median(setups)
            tracers, agree = [], True
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = dict(
        runner.record(), seed=seed, trace=trace, counters_agree=agree, setups=setups, values=values
    )
    result = {
        "correct": runner.correct and agree,
        "attempted": runner.attempted,
        "failed": runner.failed,
        # a metric that no successful iteration measured reads NaN
        "metrics": {
            m["name"]: {"value": values.get(m["name"], float("nan")), "unit": m["unit"]} for m in wanted
        },
    }
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "record": record}, fh, indent=1, default=str)
    if tracers:
        from tracing import write_spans

        write_spans(OUT / f"{stem}-spans.jsonl", tracers)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up once and print setup_s (internal)")
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            _, setup_s = timed_setup(WORKLOADS[args.workload](), args.seed, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['attempted']} attempted, {len(record['walls'])} untraced iterations timed")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(
        f"  error_rate = {record['error_rate']!r} share "
        f"({record['failed']} of {record['attempted']} failed)"
    )
    print(f"  verify.max_residual_ratio = {record['verify.max_residual_ratio']!r}")
    for d in record["digests"]:
        print("  digest " + " ".join(f"{k}={v}" for k, v in sorted(d.items())))
    kinds = Counter((e["class"], e["stage"]) for e in record["errors"])
    for (cls, stage), n in sorted(kinds.items()):
        print(f"  typed error {cls} at {stage}: {n} iteration(s)")
    if record["check_failures"]:
        print("  failed checks: " + ", ".join(record["check_failures"]))
    if not record["deterministic"] or not record["counters_agree"]:
        print("  outputs or exact counters differ between iterations of one seed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
