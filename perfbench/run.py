"""End-to-end benchmark of the query engine: one workload per invocation.

    python3 perfbench/run.py --workload interactive_small --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  The package under test is imported from
``src/`` next to this directory; nothing is installed.  With ``--trace 0``
the last line of standard output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
measured by timing shims kept in this directory (see ``tracing.py``).
The lines before it name every metric with its unit, including the
workload-specific ones that are not part of the JSON object, and record
provenance.  Exit status is 0 only when every result matched its oracle.

``--workload all`` runs every workload in turn from one process and
prefixes each metric in the JSON object with its workload.  ``--quick``
shrinks the data and the set-up repetitions; it is for the self-tests, not
for measurement.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: knobs that change what the measured program does; the benchmark always
#: measures their defaults
PINNED_KNOBS = (
    "REPRO_ADAPTIVE",
    "REPRO_ADAPTIVE_EPSILON",
    "REPRO_ADAPTIVE_STORE",
    "REPRO_PARALLELISM",
    "REPRO_DISTRIBUTED",
    "REPRO_DIST_WORKERS",
    "REPRO_TRACE",
    "REPRO_QUERY_TIMEOUT",
    "REPRO_GUARD_ELISION",
    "REPRO_DELTA_RECYCLE",
    "REPRO_SERVICE_SLOTS",
    "REPRO_INGEST_SLOTS",
)

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3

#: a seed never used while tuning the benchmark, kept for validating claims
HELD_OUT_SEED = 9001


class BenchmarkRefused(Exception):
    """The environment would make the measurement meaningless."""


def pin_environment() -> List[str]:
    """Clear the REPRO_* knobs before ``repro`` is imported."""
    verify = os.environ.get("REPRO_VERIFY_GENERATED", "1")
    if verify in ("0", "false", "no"):
        raise BenchmarkRefused(
            "REPRO_VERIFY_GENERATED disables the generated-code verifier, "
            "which is part of the measured program"
        )
    cleared = [k for k in PINNED_KNOBS if k in os.environ]
    for key in cleared:
        del os.environ[key]
    return cleared


def import_package() -> Any:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkRefused(f"no package source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchmarkRefused(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def provenance(seed: int, cleared: List[str]) -> Dict[str, Any]:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "cleared_knobs": cleared,
    }


# -- measurement ---------------------------------------------------------------


@dataclass
class Phase:
    outcomes: List[Any]
    #: loop wall time, kernel samples excluded
    wall: float
    speed: Any
    #: the process's peak resident memory when the loop started: set-up and
    #: warm-up included, the results kept for the oracle not
    peak_rss_mb: float
    #: requests that raised, one message each
    errors: List[str] = field(default_factory=list)


def run_phase(
    workload: Any,
    world: Any,
    requests: Any,
    seconds: Optional[float] = None,
    recorder: Any = None,
) -> Phase:
    """Issue requests back to back until *seconds* pass or *requests* ends.

    Only the call itself is timed: building the query, pinning the oracle's
    snapshot and the recorder's bookkeeping stay outside.  Every
    ``calibration.INTERVAL_S`` the host-speed kernel runs between requests.
    """
    from perfbench.calibration import INTERVAL_S, KERNELS, HostSpeed
    from perfbench.workloads import Outcome

    clock = time.perf_counter
    outcomes: List[Outcome] = []
    errors: List[str] = []
    speed = HostSpeed(KERNELS[workload.host_kernel])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    started = clock()
    deadline = None if seconds is None else started + seconds
    next_sample = started
    for request in requests:
        now = clock()
        if deadline is not None and now >= deadline + speed.spent:
            break
        if now >= next_sample:
            speed.sample(now - started)
            next_sample = clock() + INTERVAL_S
        call = workload.prepare(world, request)
        snapshot = workload.pin(world, request)
        if recorder is not None:
            recorder.begin(request.kind, request.label)
        t0 = clock()
        try:
            result = call()
            error = None
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        if recorder is not None:
            recorder.end(elapsed)
        if error is not None:
            errors.append(f"{request.label}: {error}")
        outcomes.append(
            Outcome(request, elapsed, _rows(result), error, snapshot, t0 - started)
        )
    wall = clock() - started - speed.spent
    return Phase(outcomes, wall, speed, peak_rss_mb, errors)


def _rows(result: Any) -> Any:
    return [tuple(r) for r in result] if isinstance(result, list) else result


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(
    phase: Phase, setups: List[float], rows_per_append: int = 0, raw: bool = False
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(metrics for the JSON object, extra workload-specific metrics).

    Times are scaled to the reference host speed (see ``calibration.py``)
    unless *raw*; *setups* holds set-up times already scaled or raw to match.
    """
    speed = phase.speed
    scale = (lambda o: 1.0) if raw else (lambda o: speed.factor_at(o.at))
    ms = {id(o): o.seconds * 1e3 * scale(o) for o in phase.outcomes}
    warm = [o for o in phase.outcomes if o.request.kind == "warm"]
    novel = [o for o in phase.outcomes if o.request.kind == "novel"]
    appends = [o for o in phase.outcomes if o.request.kind == "append"]
    classes: Dict[Tuple[str, str], List[float]] = {}
    for o in warm:
        classes.setdefault((o.request.label, o.request.engine), []).append(ms[id(o)])
    warm_ms = [ms[id(o)] for o in warm]
    novel_ms = [ms[id(o)] for o in novel]
    wall = phase.wall if raw else phase.wall / speed.slowdown()
    reads = len(warm) + len(novel)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # per-class medians, combined so the class mix cannot move it
        "query_ms_p50": (
            statistics.geometric_mean([statistics.median(v) for v in classes.values()]),
            "ms",
        ),
        "query_ms_p95": (percentile(warm_ms, 95), "ms"),
        "queries_per_s": (reads / wall, "queries/s"),
        "first_run_ms_p50": (percentile(novel_ms, 50), "ms"),
        "first_run_ms_p90": (percentile(novel_ms, 90), "ms"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }
    extra = {
        "query_ms_p99": (percentile(warm_ms, 99), "ms"),
        "first_run_ms_p95": (percentile(novel_ms, 95), "ms"),
        "warm_requests": (len(warm), "count"),
        "first_run_requests": (len(novel), "count"),
    }
    if appends:
        append_ms = [ms[id(o)] for o in appends]
        extra.update(
            {
                "ingest_ms_p50": (percentile(append_ms, 50), "ms"),
                "ingest_ms_p99": (percentile(append_ms, 99), "ms"),
                "fresh_read_ms_p50": (percentile(warm_ms, 50), "ms"),
                "fresh_read_ms_p99": (percentile(warm_ms, 99), "ms"),
                "ingest_rows_per_s": (rows_per_append * len(appends) / wall, "rows/s"),
            }
        )
    return metrics, extra


def compare_phases(first: Phase, second: Phase) -> List[str]:
    """Requests whose traced and untraced results differ."""
    diffs = []
    for a, b in zip(first.outcomes, second.outcomes):
        if a.error is None and b.error is None and a.result != b.result:
            diffs.append(f"{a.request.label}: traced result differs from untraced")
    return diffs


@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]
    extra: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    messages: List[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_benchmark(
    workload_name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> Result:
    from perfbench.calibration import KERNELS, burst_factor
    from perfbench.oracle import Verdicts
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, quick=quick)
    kernel = KERNELS[workload.host_kernel]
    setups: List[float] = []
    scaled_setups: List[float] = []
    world = None
    for _ in range(1 if quick else SETUP_REPEATS):
        world = None
        gc.collect()
        before = burst_factor(kernel)
        started = time.perf_counter()
        world = workload.setup()
        setups.append(time.perf_counter() - started)
        scaled_setups.append(setups[-1] * (before + burst_factor(kernel)) / 2)

    requests = workload.requests()
    phase = run_phase(workload, world, requests, seconds / 2 if trace else seconds)
    rows_per_append = getattr(workload, "batch_rows", 0)
    metrics, extra = end_to_end(phase, scaled_setups, rows_per_append)
    raw, raw_extra = end_to_end(phase, setups, rows_per_append, raw=True)
    for name, (value, unit) in {**raw, **raw_extra}.items():
        if unit not in ("MB", "count"):
            extra[f"{name}_raw"] = (value, unit)
    extra["host.kernel_ms"] = (statistics.median(phase.speed.seconds) * 1e3, "ms")
    extra["host.slowdown"] = (phase.speed.slowdown(), "ratio")
    verdicts = Verdicts()
    workload.check(world, phase.outcomes, verdicts)
    messages = phase.errors[:5] + verdicts.messages
    failed = len(phase.errors) + verdicts.wrong
    attempted = len(phase.outcomes)
    if trace:
        from perfbench.tracing import Recorder, layer_metrics

        world = None
        gc.collect()
        traced_world = workload.setup()
        before = workload.delta_counts(traced_world)
        recorder = Recorder()
        recorder.install()
        try:
            replay = run_phase(
                workload,
                traced_world,
                [o.request for o in phase.outcomes],
                recorder=recorder,
            )
        finally:
            recorder.uninstall()
        after = workload.delta_counts(traced_world)
        diffs = compare_phases(phase, replay) + replay.errors
        messages += diffs[:5]
        failed += len(diffs)
        attempted += len(replay.outcomes)
        delta = (after[0] - before[0], after[1] - before[1])
        extra = {**metrics, **extra}
        metrics = layer_metrics(recorder, workload.workers, delta)
        metrics["trace.overhead_ratio"] = (
            (replay.wall / replay.speed.slowdown()) / (phase.wall / phase.speed.slowdown()),
            "ratio",
        )
    extra["failed_ratio"] = (failed / attempted, "share")
    return Result(metrics, extra, attempted, failed, messages)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    try:
        cleared = pin_environment()
        import_package()
    except BenchmarkRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    # smallest first: under "all", peak_rss_mb is the process's peak so far
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(args.seed, cleared), sort_keys=True))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_benchmark(name, args.seed, args.seconds, bool(args.trace), args.quick)
        for metric, (value, unit) in {**result.metrics, **result.extra}.items():
            print(f"{name} {metric} {value:.6g} {unit}", flush=True)
        for message in result.messages:
            print(f"FAILED {name} {message}", file=sys.stderr)
        summary["correct"] = summary["correct"] and result.correct
        summary["attempted"] += result.attempted
        summary["failed"] += result.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        summary["metrics"].update(
            {
                prefix + metric: {"value": value, "unit": unit}
                for metric, (value, unit) in result.metrics.items()
            }
        )
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
