"""stabcheck benchmark: one seeded workload per run, timed from the outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

`--trace 0` times passes over the workload's fixed calls for `--seconds` and
prints the end-to-end metrics.  `--trace 1` times untraced passes for half
the time and traced passes for the other half, and prints the per-layer
metrics.  Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
output check passed.  `--smoke` runs every workload once at tiny sizes, both
ways, and checks the output against BENCHMARK.json.

The package is imported from `src/` of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sim_small", "distance_bch", "table_bch", "cli_small")
SETUP_PROBES = 5
IMPORT_PROBES = 5
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
REF_ITERATIONS = 20_000
REF_INTERVAL_S = 0.1
REF_SAMPLES_MIN = 3
REF_BLOCK = 10  # reference loops timed between set-up probes
# Typical reference-loop time on the machine the bounds were set on; only
# scales setup_s back to seconds.
REF_NOMINAL_S = 0.005


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", choices=("setup",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "stabcheck" / "__init__.py", ROOT / "fixtures") if not p.exists()]
    if missing:
        print(f"error: checkout lacks {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import workloads

    if args.probe == "setup":
        workloads.prepare(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        return 0
    return measure(args, workloads)


def measure(args: argparse.Namespace, workloads) -> int:
    import stabcheck

    if Path(stabcheck.__file__).resolve().parent != SRC / "stabcheck":
        print(f"error: imported stabcheck from {stabcheck.__file__}", file=sys.stderr)
        return 2
    # One core for the whole run, probes included.  On the 2-vCPU machine the
    # bounds were set on, the last core ran far steadier than core 0.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    inputs = workloads.prepare(args.workload, args.seed, args.tiny)
    work = workloads.workload(args.workload, inputs)
    metrics: dict[str, tuple[float, str]] = {}
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "environment": environment()}

    untraced_budget = args.seconds if args.trace == 0 else args.seconds / 2
    passes = timed_passes(work, untraced_budget)
    if args.trace == 0:
        setup_raw, setup_scaled = setup_seconds(args)
        metrics["setup_s"] = (setup_scaled, "s")
        metrics["wall_per_ref"] = (statistics.median(p.wall / p.ref for p in passes), "ratio")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        report["detail"] = {"setup_raw_s": setup_raw, **detail(passes)}
    else:
        from tracer import Tracer, layer_metrics, unit_of

        tracer = Tracer()
        with tracer:
            traced = timed_passes(work, args.seconds / 2, tracer)
        per_pass = [layer_metrics(*log) for log in tracer.history]
        for name in per_pass[0]:
            metrics[name] = (statistics.median(p[name] for p in per_pass), unit_of(name))
        metrics["import_s"] = (import_seconds(), "s")
        untraced_wall = statistics.median(p.wall / p.ref for p in passes)
        traced_wall = statistics.median(p.wall / p.ref for p in traced)
        metrics["trace.overhead_ratio"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}.jsonl.gz"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        passes = passes + traced

    attempted = sum(len(p.ok) for p in passes)
    failed = sum(p.ok.count(False) for p in passes)
    bad_one_off = [desc for desc, ok in work.one_off if not ok]
    correct = failed == 0 and not bad_one_off
    report.update(
        passes=len(passes),
        pass_walls_s=[p.wall for p in passes],
        pass_refs_s=[p.ref for p in passes],
        ops_failed_ratio=failed / attempted,
        failed_one_off_checks=bad_one_off,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print("report " + json.dumps({k: report[k] for k in ("detail", "ops_failed_ratio",
                                                         "passes", "environment") if k in report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


@dataclass
class Pass:
    """Timings and check outcomes of one pass over a workload's calls."""

    kinds: list[str] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    trials: list[int] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    ref: float = 0.0  # reference-loop time around this pass

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    def total(self, *kinds: str) -> float:
        return sum(s for k, s in zip(self.kinds, self.seconds) if k in kinds)


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work that never changes.

    The host's speed drifts by tens of percent within seconds; dividing pass
    times by this loop's time, taken during the same pass, cancels the drift
    so that passes compare across runs.
    """
    t0 = perf_counter()
    table = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    return perf_counter() - t0


def reference_block(samples: int) -> float:
    return statistics.median(reference_loop() for _ in range(samples))


class ReferenceSampler:
    """Times the reference loop every REF_INTERVAL_S of wall time while active.

    The loop runs from a SIGALRM handler, between the bytecodes of whatever
    call is being timed; `stolen` sums the handler time so that it can be
    taken out of that call's duration.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self.samples.append(reference_loop())
        self.stolen += perf_counter() - t0
        self._busy = False

    def __enter__(self) -> ReferenceSampler:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def since(self, first: int) -> float:
        """Median reference time from sample `first` on (at least the last few)."""
        window = self.samples[min(first, len(self.samples) - REF_SAMPLES_MIN):]
        return statistics.median(window) if window else reference_block(REF_SAMPLES_MIN)


def timed_passes(work, budget_s: float, tracer=None) -> list[Pass]:
    """Repeat passes until the next one would end past the budget (at least one).

    Each pass records the median reference-loop time sampled during it; the
    sampler's own time is taken out of the call it interrupted.
    """
    passes: list[Pass] = []
    started = perf_counter()
    request = 0
    with ReferenceSampler() as sampler:
        while True:
            gc.collect()
            p = Pass()
            first = len(sampler.samples)
            for call in work.calls:
                request += 1
                if tracer is not None:
                    tracer.request = request
                stolen = sampler.stolen
                t0 = perf_counter()
                out = call.fn()
                p.seconds.append(perf_counter() - t0 - (sampler.stolen - stolen))
                p.kinds.append(call.kind)
                p.trials.append(call.trials)
                p.ok.append(bool(call.check(out)))
                del out
            p.ref = sampler.since(first)
            if tracer is not None:
                tracer.end_pass()
            passes.append(p)
            typical = statistics.median(q.wall for q in passes)
            if perf_counter() - started + typical > budget_s:
                return passes


def detail(passes: list[Pass]) -> dict:
    """Workload-specific figures: medians over passes of per-phase sums."""
    kinds = set(passes[0].kinds)
    med = statistics.median
    out: dict = {"wall_s": med(p.wall for p in passes)}
    if "table" in kinds:
        out["table_build_s"] = med(p.total("table") for p in passes)
    if "simulate" in kinds:
        out["trials_per_s"] = med(sum(p.trials) / p.total("simulate") for p in passes)
    if "distance" in kinds:
        out["distance_s"] = med(p.total("distance") for p in passes)
    if "classify" in kinds:
        out["classify_s"] = med(p.total("classify") for p in passes)
    if "cli" in kinds:
        latencies = sorted(s * 1000 for p in passes for s in p.seconds)
        out["cli_latency_p50_ms"] = statistics.median(latencies)
        out["cli_latency_samples"] = len(latencies)
        for pct in TAIL_PERCENTILES:
            if len(latencies) * (100 - pct) / 100 >= 10:
                index = min(len(latencies) - 1, int(len(latencies) * pct / 100))
                out["cli_latency_tail_ms"] = latencies[index]
                out["cli_latency_tail_percentile"] = pct
                break
    return out


def setup_seconds(args: argparse.Namespace) -> tuple[float, float]:
    """Median time from a fresh interpreter to inputs ready for the first call.

    Returns (raw seconds, seconds at reference speed); the second divides each
    probe by the reference loops timed next to it and scales by REF_NOMINAL_S.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    raw, scaled = [], []
    ref_before = reference_block(REF_BLOCK)
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        ref_after = reference_block(REF_BLOCK)
        raw.append(elapsed)
        scaled.append(elapsed * REF_NOMINAL_S * 2 / (ref_before + ref_after))
        ref_before = ref_after
    return statistics.median(raw), statistics.median(scaled)


def import_seconds() -> float:
    """Median time of a fresh `import stabcheck`, measured inside the child."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import stabcheck; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times)


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def smoke() -> int:
    """Run every workload once at tiny sizes, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "1",
                   "--seconds", "0.1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{name} trace {trace}: no result line; stderr: {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: checks failed ({lines[-2] if len(lines) > 1 else ''})")
            got = result["metrics"]
            for m in expected[trace]:
                value = got.get(m["name"])
                if value is None or value["unit"] != m["unit"] or not isinstance(value["value"], (int, float)):
                    problems.append(f"{name} trace {trace}: metric {m['name']} missing or malformed")
                elif trace == 0 and not value["value"] > 0:
                    problems.append(f"{name} trace {trace}: end-to-end metric {m['name']} is not positive")
            extra = set(got) - {m["name"] for m in expected[trace]}
            if extra:
                problems.append(f"{name} trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"smoke {name} trace {trace}: attempted {result['attempted']}, failed {result['failed']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: PASS" if not problems else "smoke: FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
