"""proxigraph benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload sweep-graphs --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports proxigraph from
`src/`.  Every job is a `proxigraph.cli.main(argv)` call made in this
process, one after another, and its output is checked on an independent
route.  With `--trace 0` the job list runs once in full and jobs then
repeat while one still fits in `--seconds`; the last stdout line carries
the end-to-end metrics, in calibrated seconds (see `Clock`).  With
`--trace 1` one untraced pass is followed by one traced pass, and the
last line carries per-layer metrics.  Reports, and with tracing the span
table, go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
REFERENCE_STEPS = 4000
REFERENCE_S = 0.02  # calibrated seconds are seconds on a machine that runs the loop in this
READ_EVERY_S = 0.25

# Per-layer times in the result line are those of the functions and modules
# that every workload calls, so that none reads zero by construction.  The
# lines printed above the result, and the report file, carry every traced
# function, `theorems.fast_s` and `theorems.oracle_s` included.
LAYER_TIMES_IN_RESULT = {
    "graphs.connected_components", "graphs.induced_subgraph", "spaces.set_distance",
    "spaces.is_proximinal", "spaces.best_approximations", "bepaths.is_path_bipartite",
    "path_proximinal.build_threshold_graph", "path_proximinal.verify_path_proximinal",
    "graphs", "spaces", "bepaths", "path_proximinal", "instances", "cli",
}


def _parse_args(argv=None) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_proxigraph():
    """The proxigraph package of this checkout, never an installed copy."""
    if not (SRC / "proxigraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no proxigraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    px = importlib.import_module("proxigraph")
    importlib.import_module("proxigraph.cli")
    if SRC.resolve() not in Path(px.__file__).resolve().parents:
        raise SystemExit(f"error: imported proxigraph from {px.__file__}, not {SRC}")
    return px


def _build_jobs(args, px, tmp: Path):
    import workloads

    return workloads.WORKLOADS[args.workload](px, args.seed, tmp)


def _setup_probe(args) -> None:
    """Child process: import and build the inputs, say so, then clean up."""
    px = _import_proxigraph()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        _build_jobs(args, px, Path(tmp))
        print("ready", flush=True)


def _setup_sample(args) -> float:
    """Seconds from interpreter start to inputs ready, in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"error: set-up probe failed with exit {child.returncode}")
    return elapsed


def reference_s() -> float:
    """Seconds the fixed reference loop takes now.

    The loop does what proxigraph's hot paths do, Fraction arithmetic on
    tuple-keyed dicts, so it slows down with the shared host as the jobs
    do; a plain integer loop tracks them about three times less closely.
    It uses no proxigraph code, and the
    garbage collector is off while it runs so that the heap a job leaves
    behind cannot change its time.
    """
    rng = random.Random(0)
    table: dict[tuple[int, int], Fraction] = {}
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        for _ in range(REFERENCE_STEPS):
            key = (rng.randrange(500), rng.randrange(500))
            table[key] = table.get(key, Fraction(0)) + Fraction(rng.randrange(1, 9), 8)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Clock:
    """Times work in measured and in calibrated seconds.

    The host lends this machine its cores, and the same job runs up to 1.7
    times slower in some minutes than in others, in CPU time as much as in
    wall time.  The reference loop slows down with it: over 35 s windows
    of a nine-minute record on 2 shared vCPUs, a t2.1 work unit's median
    time spread 0.26 (IQR / median), and its ratio to the loop's time,
    read beside it, 0.03.  While the clock is entered, a SIGALRM timer
    reads the loop every READ_EVERY_S, inside the work too, so that long
    jobs are followed through the host's faster and slower spells; the
    time spent reading is left out of the work's time.  A calibrated time
    is the measured time times REFERENCE_S over the mean of the readings
    taken from just before the work to just after it: the time the work
    would take on a machine that runs the loop in REFERENCE_S.
    """

    def __enter__(self) -> "Clock":
        self.readings: list[float] = []
        self.reading_s = 0.0  # total time spent reading
        self._busy = False
        self._read()
        signal.signal(signal.SIGALRM, self._read)
        self._arm(True)
        return self

    def __exit__(self, *exc) -> None:
        self._arm(False)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _arm(self, on: bool) -> None:
        every = READ_EVERY_S if on else 0.0
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def _read(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.readings.append(reference_s())
        self.reading_s += time.perf_counter() - start
        self._busy = False

    def measure(self, work, interrupt: bool = True):
        """Run `work()`: its result, its measured seconds and the calibration factor.

        With `interrupt` false the timer is held while `work` runs, for work
        done by a child process: readings in this one would compete with it.
        """
        first, reading_s = len(self.readings) - 1, self.reading_s
        if not interrupt:
            self._arm(False)
        start = time.perf_counter()
        result = work()
        seconds = time.perf_counter() - start - (self.reading_s - reading_s)
        if not interrupt:
            self._arm(True)
        self._read()
        return result, seconds, REFERENCE_S / statistics.fmean(self.readings[first:])


def _measure(work):
    """`Clock.measure` without calibration."""
    start = time.perf_counter()
    result = work()
    return result, time.perf_counter() - start, 1.0


def _run_job(cli, job, measure) -> tuple[float, float, str | None]:
    """Measured seconds of the job, its calibration factor, and the problem with its output or None."""
    out = io.StringIO()

    def call():
        try:
            return cli.main(job.argv), None
        except Exception:
            return None, "raised " + traceback.format_exc(limit=-3)

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        (code, problem), elapsed, factor = measure(call)
    if code is not None:
        try:
            problem = job.check(code, out.getvalue())
        except Exception:
            problem = "output the check could not read: " + traceback.format_exc(limit=-1)
    return elapsed, factor, problem


class Runs:
    """Every job execution: its time and, when its output was wrong, why.

    `samples` holds calibrated seconds when a clock is given and measured
    seconds otherwise; `raw_samples` always holds measured seconds.
    """

    def __init__(self, jobs, clock: Clock | None = None) -> None:
        self.jobs = jobs
        self.clock = clock
        self.samples = {job.name: [] for job in jobs}
        self.raw_samples = {job.name: [] for job in jobs}
        self.problems: list[str] = []
        self.attempted = 0

    def run(self, cli, job) -> float:
        elapsed, factor, problem = _run_job(cli, job, self.clock.measure if self.clock else _measure)
        self.attempted += 1
        self.raw_samples[job.name].append(elapsed)
        self.samples[job.name].append(elapsed * factor)
        if problem is not None:
            self.problems.append(f"{job.name}: {problem}")
        return elapsed

    def one_pass(self, cli) -> float:
        return sum(self.run(cli, job) for job in self.jobs)

    def job_median(self, job) -> float:
        return statistics.median(self.samples[job.name])

    def raw_median(self, job) -> float:
        return statistics.median(self.raw_samples[job.name])

    def raw_wall(self) -> float:
        """One pass in measured seconds: the sum of the per-job medians."""
        return sum(statistics.median(times) for times in self.raw_samples.values())

    def groups(self) -> dict[str, float]:
        """Per-job figures: the summed median seconds of the jobs in each group."""
        out: dict[str, float] = {}
        for job in self.jobs:
            out[job.group] = out.get(job.group, 0.0) + self.job_median(job)
        return out


def _timed_loop(cli, jobs, seconds: float, setup_sample, clock: Clock):
    """One full pass, then repeats while some job still fits in `seconds`.

    A repeat goes to the job with the fewest samples, the longest first:
    the long jobs carry most of a pass's time, so their medians matter most.
    The SETUP_PROBES set-up samples are taken between jobs, spread over the
    first pass, so that they meet the machine in the same state as the jobs;
    their time does not count against `seconds`.  Job and set-up times are
    calibrated by one clock.  Returns the job runs, the calibrated set-up
    samples and the measured ones.
    """
    runs = Runs(jobs, clock)
    setup: list[float] = []
    raw_setup: list[float] = []

    def probe() -> None:
        seconds, _, factor = clock.measure(setup_sample, interrupt=False)
        raw_setup.append(seconds)
        setup.append(seconds * factor)

    every = -(-len(jobs) // SETUP_PROBES)
    start = time.perf_counter()
    while True:
        if runs.attempted % every == 0 and len(setup) < SETUP_PROBES:
            probe_start = time.perf_counter()
            probe()
            start += time.perf_counter() - probe_start
        if runs.attempted < len(jobs):
            runs.run(cli, jobs[runs.attempted])
            continue
        left = seconds - (time.perf_counter() - start)
        fitting = [job for job in jobs if runs.raw_median(job) <= left]
        if not fitting:
            break
        runs.run(cli, min(fitting, key=lambda j: (len(runs.samples[j.name]), -runs.raw_median(j))))
    while len(setup) < SETUP_PROBES:
        probe()
    return runs, setup, raw_setup


def _environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_sha256": digest.hexdigest(),
    }
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        env["commit"] = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return env


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: Runs, setup: list[float]) -> dict:
    medians = [runs.job_median(job) for job in runs.jobs]
    wall = sum(medians)
    instances = sum(job.instances for job in runs.jobs)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": _metric((runs.attempted - len(runs.problems)) / runs.attempted, "ratio"),
        "wall_s": _metric(wall, "s"),
        "instances_per_s": _metric(instances / wall, "1/s"),
    }


def per_layer(summary: dict, untraced_s: float, traced_s: float) -> dict:
    metrics = {}
    for name, stats in summary["functions"].items():
        if not name.startswith("perfbench."):
            metrics[f"{name}.calls"] = _metric(stats["calls"], "count")
            metrics[f"{name}.self_s"] = _metric(stats["self_s"], "s")
    for module, stats in summary["modules"].items():
        metrics[f"{module}.self_s"] = _metric(stats["self_s"], "s")
        metrics[f"{module}.errors"] = _metric(stats["errors"], "count")
    for name in ("theorems.fast_s", "theorems.oracle_s"):
        metrics[name] = _metric(summary[name], "s")
    for name in ("bepaths.block_pairs_tested", "bepaths.block_pairs_joined",
                 "spaces.classify.distinct_spaces"):
        metrics[name] = _metric(summary[name], "count")
    metrics["trace.untraced_wall_s"] = _metric(untraced_s, "s")
    metrics["trace.wall_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    return metrics


def in_result(name: str, metric: dict) -> bool:
    """Whether a per-layer metric goes into the result line."""
    if metric["unit"] == "count":
        return not name.startswith("theorems.sweep_")
    return name.startswith("trace.") or name.rsplit(".", 1)[0] in LAYER_TIMES_IN_RESULT


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.pop("PROXIGRAPH_MAX_N", None)
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    px = _import_proxigraph()
    cli = sys.modules["proxigraph.cli"]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment()}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        jobs = _build_jobs(args, px, Path(tmp))
        if args.trace:
            import tracing

            runs = Runs(jobs)
            untraced_s = runs.one_pass(cli)
            traced = Runs(jobs)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s = traced.one_pass(cli)
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            tracer.write(OUT / args.workload)
            metrics = per_layer(summary, untraced_s, traced_s)
            result_metrics = {k: v for k, v in metrics.items() if in_result(k, v)}
            runs.attempted += traced.attempted
            runs.problems += [f"traced {problem}" for problem in traced.problems]
            report["trace_summary"] = summary
            report["traced_job_samples_s"] = traced.samples
        else:
            with Clock() as clock:
                runs, setup, raw_setup = _timed_loop(cli, jobs, args.seconds,
                                                     lambda: _setup_sample(args), clock)
            metrics = result_metrics = end_to_end(runs, setup)
            report["setup_samples_s"] = setup
            report["raw_setup_samples_s"] = raw_setup
            report["raw_setup_s"] = statistics.median(raw_setup)
            report["raw_wall_s"] = runs.raw_wall()
    report["job_samples_s"] = runs.samples
    report["raw_job_samples_s"] = runs.raw_samples
    report["job_groups_s"] = runs.groups()
    report["problems"] = runs.problems
    report["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} python={env['python']} nproc={env['nproc']}"
          f" commit={env.get('commit', '-')} src_sha256={env['src_sha256'][:16]}")
    for job in jobs:
        times = runs.samples[job.name]
        print(f"# job {job.name:<40} n={len(times):<3} median={statistics.median(times):.4f} s")
    for group, seconds in runs.groups().items():
        print(f"# {group} = {seconds:.4f} s")
    for name_ in ("raw_wall_s", "raw_setup_s"):
        if name_ in report:
            print(f"# {name_} = {report[name_]:.6g} s (measured, not calibrated)")
    for problem in runs.problems:
        print(f"# FAILED {problem}")
    for name_, metric in metrics.items():
        print(f"# {name_} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not runs.problems,
        "attempted": runs.attempted,
        "failed": len(runs.problems),
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0 if not runs.problems else 1


if __name__ == "__main__":
    sys.exit(main())
