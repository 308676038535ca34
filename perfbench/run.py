"""bdbridge benchmark: end-to-end and per-layer timings of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload filter-shigellosis --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory.  A run sets the
workload up, warms it up (evaluating the fixed seeded set behind ``mc_sd``),
then runs ops in a closed loop with one caller for ``--seconds``.  Op ``k``
draws from the stream ``(seed, k)``.  Every output is then checked against
an independent oracle outside the timed region.  Op and set-up times are
wall times net of hypervisor steal (see ``Stopwatch``); the raw wall median
and the stolen share are on the info line.

``--trace 0`` reports the end-to-end metrics, with no wrappers installed.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics of the traced ones plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it carries the seed, the digest of op 0's
outputs at 17 significant digits, the tail percentile and the failures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

if not (SRC / "bdbridge" / "__init__.py").is_file():
    sys.exit(f"perfbench: package source not found at {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-up is timed in fresh interpreters, this many times, and the median kept.
SETUP_PROBES = 7
_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.make(sys.argv[3]).setup(); print('ready', flush=True)")

E2E_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "paths_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "mc_sd": "nat",
    "s_to_tol": "s",
}
LAYER_UNITS = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
LAYER_UNITS["trace_overhead_frac"] = "fraction"


@dataclass
class Record:
    k: int
    traced: bool
    seconds: float | None = None  # wall time net of steal, see Stopwatch
    wall: float | None = None
    steal_share: float | None = None
    result: object = None
    error: str | None = None


def _cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) CPU ticks of the whole machine since boot; (0, 0) if unknown."""
    try:
        with open("/proc/stat") as fh:
            user, nice, system, _, _, irq, softirq, steal = map(int, fh.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


class Stopwatch:
    """Wall time from construction to ``stop``, and the same net of steal.

    On a shared virtual machine the host deschedules this machine's CPUs at
    times, and the kernel counts that as steal.  ``net`` scales the wall time
    by one minus the stolen share of the CPU time that wanted to run, so host
    contention does not read as a change in the code.  Without /proc/stat,
    ``net`` equals ``wall``.
    """

    def __init__(self):
        self._ticks = _cpu_ticks()
        self._start = time.perf_counter()

    def stop(self) -> "Stopwatch":
        self.wall = time.perf_counter() - self._start
        busy, stolen = (b - a for a, b in zip(self._ticks, _cpu_ticks()))
        self.steal_share = stolen / (busy + stolen) if busy + stolen > 0 else 0.0
        self.net = self.wall * (1.0 - self.steal_share)
        return self


def setup_seconds(name: str, probes: int) -> float:
    """Median time, net of steal, from interpreter start to a workload ready
    for its first op."""
    times = []
    for _ in range(probes):
        watch = Stopwatch()
        with subprocess.Popen([sys.executable, "-c", _PROBE, str(SRC), str(BENCH_DIR), name],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(watch.stop().net)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
    return statistics.median(times)


def timed_ops(work, seed: int, seconds: float, tracer=None) -> list[Record]:
    """Closed loop of ops for about ``seconds``; odd ops are traced if tracing.

    An op starts only if the median op so far still fits in the budget, and
    at least one op (one of each kind when tracing) always runs.
    """
    records: list[Record] = []
    durations: list[float] = []
    minimum = 1 if tracer is None else 2
    start = time.perf_counter()
    k = 0
    while True:
        rec = Record(k, tracer is not None and k % 2 == 1)
        stream = workloads.op_stream(seed, k)
        try:
            if rec.traced:
                tracer.install()
                try:
                    with tracer.op(k):
                        watch = Stopwatch()
                        rec.result = work.op(stream, tracer)
                        watch.stop()
                finally:
                    tracer.uninstall()
            else:
                watch = Stopwatch()
                rec.result = work.op(stream)
                watch.stop()
            rec.seconds, rec.wall, rec.steal_share = watch.net, watch.wall, watch.steal_share
            durations.append(rec.wall)
        except Exception as exc:  # a failing op is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            rec.error = f"raised {exc!r}"
        records.append(rec)
        k += 1
        elapsed = time.perf_counter() - start
        expected = statistics.median(durations) if durations else 0.0
        if k >= minimum and elapsed + expected > seconds:
            return records


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that has
    at least ten samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: workloads.Sizes = workloads.FULL, probes: int = SETUP_PROBES):
    """One benchmark run; returns (result line, info line) as dicts."""
    work = workloads.make(name, sizes)
    setup_s = None if trace else setup_seconds(name, probes)
    work.setup()
    if trace:
        warm, mc_samples = [work.op(workloads.op_stream(seed, 0))], None
    else:
        warm, mc_samples = work.warm_up(seed)
    tracer = tracing.Tracer() if trace else None
    records = timed_ops(work, seed, seconds, tracer)
    rss = peak_rss_mb()

    work.prepare_oracle(seed)
    checked = [(f"warm-up {i}", r, None) for i, r in enumerate(warm)]
    checked += [(f"op {r.k}", r.result, r.error) for r in records]
    failures = {}
    for label, result, error in checked:
        reason = error or work.check(result)
        if reason:
            failures[label] = reason
    done = [r for r in records if r.error is None]
    if not done:
        raise RuntimeError(f"every op failed: {failures}")
    op0 = records[0]
    op0_digest = workloads.digest(work.values(op0.result)) if op0.error is None else None
    if not trace and work.warm_up_replays_op0:
        single = workloads.digest(work.values(warm[0]))
        if single != op0_digest:
            failures.setdefault("op 0", f"digest {op0_digest} differs from the "
                                        f"one-thread digest {single}")

    info = {"workload": name, "seed": seed, "trace": int(trace),
            "digest_op0": op0_digest, "ops": len(records),
            "fail_frac": len(failures) / len(checked), "failures": failures}
    if trace:
        metrics, missing = tracing.layer_metrics(tracer, work.threads)
        plain = [r.seconds for r in done if not r.traced]
        traced = [r.seconds for r in done if r.traced]
        metrics["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
            if plain and traced else 0.0)
        info.update(missing=missing, missing_targets=tracer.missing)
        units = LAYER_UNITS
    else:
        times = [r.seconds for r in done]
        p50 = statistics.median(times)
        tail_s, pct, beyond = tail(times)
        mc_sd = work.mc_sd(mc_samples)
        metrics = {
            "setup_s": setup_s,
            "op_s_p50": p50,
            "op_s_tail": tail_s,
            "paths_per_s": statistics.median(work.paths(r.result) / r.seconds
                                             for r in done),
            "peak_rss_mb": rss,
            "mc_sd": mc_sd,
            "s_to_tol": p50 * (mc_sd / work.mc_target) ** 2,
        }
        info.update(op_s_tail_percentile=pct, op_s_tail_beyond=beyond,
                    op_samples=len(times), mc_target=work.mc_target,
                    op_wall_s_p50=statistics.median(r.wall for r in done),
                    steal_share_p50=statistics.median(r.steal_share for r in done),
                    op_seconds=[round(t, 4) for t in times])
        units = E2E_UNITS
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return result, info


def emit(result: dict, info: dict) -> None:
    """Print each metric with its unit, then the info line, then the result line."""
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    emit(*run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
