"""spindimer benchmark: one closed-loop client running one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oracle_ladder --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout; without it the run
stops with exit code 1 and prints no result.  Inputs are drawn from
``--seed``; one op is issued only after the previous one returned, and every
op is checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates traced and untraced ops and reports the per-layer metrics (see
tracer.py) plus the traced/untraced latency ratio.  ``--inject-fault X``
skews the validation suite (validate_suite) or the reference
(oracle_ladder) so that the benchmark's own check can be shown to fail.

The last line of standard output is the result as one JSON object; the line
before it records the machine, the versions and the seed.
"""

import os

# Pin BLAS/OpenMP threads before numpy loads, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

FRESH_SAMPLES = 7  # cold ops and set-ups per run, each reported as its median
CHILD_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0
COLD_INDEX = 1_000_000  # op indices of cold ops, disjoint from the timed ones
SPAN_BUDGET = 500_000  # spans kept in memory per traced run (~14 MB)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", type=float, default=0.0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """spindimer from this checkout's src/, never from an installed copy."""
    if not (SRC / "spindimer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'spindimer'}")
    sys.path.insert(0, str(SRC))
    import spindimer
    import spindimer.cli  # noqa: F401  (loads every layer module)

    if Path(spindimer.__file__).resolve().parent != SRC / "spindimer":
        sys.exit(f"perfbench: imported spindimer from {spindimer.__file__}, not {SRC}")
    return spindimer


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def remaining(deadline):
    left = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if left <= 0.0:
        raise TimeoutError("run deadline passed")
    return left


def time_command(argv, deadline):
    """(wall seconds, returncode, stdout) of one fresh process."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=remaining(deadline))
    return time.perf_counter() - start, proc.returncode, proc.stdout


def time_until_ready(argv, deadline):
    """Seconds from spawning ``argv`` until it prints its ready line."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
        line = proc.stdout.readline() if readable else b""
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return elapsed


def tail(latencies_ms):
    """Highest-percentile sample with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inject_fault": args.inject_fault,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class FreshProcesses:
    """Samples of the two fresh-interpreter metrics, taken during the run.

    cold_op_ms: one op by the user's command in a new interpreter (for
    fit_pipeline the three commands summed).  setup_s: a new benchmark
    process from spawn until it has imported the program and done its
    warm-up op.
    """

    def __init__(self, workload, deadline):
        self.workload = workload
        self.deadline = deadline
        self.cold_ms, self.cold_ok, self.setup_s = [], [], []
        self._probe = [sys.executable, str(Path(__file__).resolve()), "--workload",
                       workload.name, "--seed", str(workload.seed), "--seconds", "1",
                       "--setup-probe"]

    def take(self):
        index = COLD_INDEX + len(self.cold_ms)
        results = [time_command(argv, self.deadline)
                   for argv in self.workload.cold_commands(sys.executable, index)]
        self.cold_ms.append(1e3 * sum(wall for wall, _, _ in results))
        self.cold_ok.append(self.workload.check_cold(index, [r[1:] for r in results]))
        self.setup_s.append(time_until_ready(self._probe, self.deadline))


def closed_loop(workload, seconds, tracer=None, fresh=None):
    """Run ops back to back for ``seconds``; returns per-op records.

    Each op is checked right after it returns, outside its timing.  With a
    tracer, odd ops run traced and even ops untraced until SPAN_BUDGET spans
    are stored; later ops run untraced.  With ``fresh``, the
    loop pauses FRESH_SAMPLES times, evenly spread over the run, to take
    fresh-process samples, so that they see the same machine as the ops.
    The op right after a sample runs on caches the child process evicted;
    it is checked but marked ``after_fresh`` and left out of the latencies.
    """
    records = []
    start = time.perf_counter()
    n_fresh = FRESH_SAMPLES if fresh else 0
    due = [start + seconds * (k + 0.5) / n_fresh for k in range(n_fresh)]
    index = 1
    after_fresh = False
    while True:
        now = time.perf_counter()
        if due and now >= due[0]:
            due.pop(0)
            fresh.take()
            after_fresh = True
            continue
        if now >= start + seconds and len(records) >= 2 + n_fresh:
            break
        inp = workload.make_input(index)
        traced = tracer is not None and index % 2 == 1 and tracer.n_spans < SPAN_BUDGET
        if traced:
            tracer.op_id = index
            tracer.install()
        op_start = time.perf_counter()
        out = workload.run(inp)
        elapsed = time.perf_counter() - op_start
        if traced:
            tracer.uninstall()
            tracer.op_id = -1
        records.append({"index": index, "ms": elapsed * 1e3, "traced": traced,
                        "after_fresh": after_fresh, "ok": workload.check(inp, out)})
        after_fresh = False
        index += 1
    return records


def end_to_end(records, fresh):
    latencies = [r["ms"] for r in records if not r["after_fresh"]]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "op_tail_ms": (tail_ms, "ms"),
        "cold_op_ms": (statistics.median(fresh.cold_ms), "ms"),
        "setup_s": (statistics.median(fresh.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    # The median and the throughput carry no bound: they follow the share of
    # the run the shared host spends at each of its speed levels (README.md).
    info = {"op_p50_ms": statistics.median(latencies),
            "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
            "op_tail_percentile": tail_pct, "op_samples": len(latencies),
            "cold_op_samples_ms": fresh.cold_ms, "setup_samples_s": fresh.setup_s}
    return metrics, info


def per_layer(tracer, records, spans_path):
    """Median per traced op of every per-layer metric, and the trace overhead."""
    traced = [r for r in records if r["traced"]]
    # Untraced ops interleaved with the traced ones, for the overhead ratio.
    untraced = [r for r in records
                if not r["traced"] and r["index"] <= traced[-1]["index"] + 1]
    per_op = tracer.per_op_metrics([r["index"] for r in traced])
    metrics = {name: (statistics.median(values), tracing.unit(name))
               for name, values in per_op.items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["ms"] for r in traced)
        / statistics.median(r["ms"] for r in untraced), "ratio")
    tracer.write(spans_path)
    info = {"traced_ops": len(traced), "untraced_ops": len(untraced),
            "spans": tracer.n_spans, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    spindimer = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        try:
            workload = WORKLOADS[args.workload](spindimer, args.seed, workdir, args.inject_fault)
        except ValueError as exc:
            sys.exit(f"perfbench: {exc}")

        warmup = workload.make_input(0)
        warmup_out = workload.run(warmup)
        if args.setup_probe:  # set-up ends here; the check below is not part of it
            print("ready", flush=True)
        warmup_ok = workload.check(warmup, warmup_out)
        if args.setup_probe:
            return 0 if warmup_ok else 1

        if args.trace:
            tracer = tracing.Tracer(spindimer)
            records = closed_loop(workload, args.seconds, tracer=tracer)
            spans_path = OUT / f"spans-{args.workload}.csv"
            metrics, info = per_layer(tracer, records, spans_path)
            extra_ok = []
        else:
            fresh = FreshProcesses(workload, started + RUN_DEADLINE_S)
            records = closed_loop(workload, args.seconds, fresh=fresh)
            metrics, info = end_to_end(records, fresh)
            extra_ok = fresh.cold_ok

    oks = [warmup_ok] + [r["ok"] for r in records] + extra_ok
    failed = oks.count(False)
    info.update(environment(args), error_rate=failed / len(oks),
                cold_ops_failed=extra_ok.count(False))
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0, "attempted": len(oks), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
