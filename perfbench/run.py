"""Benchmark of the localglobal library and CLI.

    python3 perfbench/run.py --workload twists|family|cubic --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition of a workload runs in a
fresh interpreter (one child process at a time), because the program's
module-level caches would turn a second in-process repetition into cache
hits, while a CLI user pays for them on every invocation.  Repetitions
start until S seconds have passed.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of traced repetitions, which alternate with
untraced ones so that the tracing overhead is measured too.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}; the
lines before it show every metric with its unit, the error rate and the
run's metadata, which is also stored under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"

SETUP_SAMPLES = 11
IMPORT_TIME_SAMPLES = 3
DEADLINE_S = 170  # every run ends well within three minutes

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
    "item_p90_ms": "ms", "peak_rss_mb": "MB",
}
# Function-level metrics named by the benchmark's layer -> end-to-end table.
FUNCTION_METRICS = (
    "padic.power_class.calls", "padic.power_class.self_s",
    "padic.power_class_from_parts.self_s",
    "exact.is_probable_prime.calls", "exact.is_probable_prime.self_s",
    "symbols.is_local_norm.calls", "symbols.is_local_norm.self_s",
    "reichardt_lind.local_point.calls", "reichardt_lind.local_point.self_s",
    "reichardt_lind.local_point.no_point",
    "padic.hensel_root.calls", "padic.hensel_root.self_s",
    "exact.factorize.self_s",
    "cli.main.self_s", "cli.build_parser.self_s",
    "cubic.cube_class_group.self_s", "cubic.cube_class_group.total_s",
    "tower.curve_identity_suite.self_s", "tower.curve_identity_suite.total_s",
    "tower.norm_K_over_k.calls", "tower.norm_K_over_k.self_s",
    "selmer.survival_analysis.self_s", "selmer.survival_analysis.total_s",
    "reichardt_lind.forced_section_invariants.total_s",
    "reichardt_lind.local_point.total_s",
    "cli.main.total_s",
)
CACHE_LAYERS = ("padic", "symbols")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in child.LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.errors": "count", f"{layer}.import_s": "s"})
    units.update({f"{layer}.cache_entries": "count" for layer in CACHE_LAYERS})
    for name in FUNCTION_METRICS:
        units[name] = "s" if name.endswith("_s") else "count"
    units["trace_overhead_frac"] = "ratio"
    return units


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, *extra: str, timeout: float, flags: tuple = ()) -> tuple[dict, str]:
    """Run one child to completion; returns its JSON result and stderr."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONOPTIMIZE")}
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, *flags, str(CHILD), mode, str(SRC), repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr
    except (ValueError, IndexError) as exc:
        raise ChildFailed(f"{mode} child printed no result:\n{proc.stdout[-500:]}") from exc


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_times(stderr: str) -> dict[str, float]:
    """Self import time of each layer from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        parts = [part.strip() for part in line.split("|")]
        if len(parts) == 3 and parts[2].startswith("localglobal."):
            layer = parts[2].removeprefix("localglobal.")
            if layer in child.LAYERS:
                out[layer] = int(parts[0].split(":")[-1]) / 1e6
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    remaining = lambda: deadline - time.monotonic()

    spawn("setup", timeout=remaining())  # writes bytecode caches; not timed
    setup = [spawn("setup", timeout=remaining())[0] for _ in range(SETUP_SAMPLES)]

    reps = {"run": [], "trace": []}
    longest, began = 0.0, time.monotonic()
    while True:
        if trace:
            mode = "trace" if len(reps["trace"]) <= len(reps["run"]) else "run"
            enough = len(reps["trace"]) >= 2 and len(reps["run"]) >= 1
        else:
            mode, enough = "run", len(reps["run"]) >= 1
        # The last check keeps the run inside its deadline on a slow machine.
        if enough and (time.monotonic() - began >= seconds or remaining() < 3 * longest):
            break
        started = time.monotonic()
        reps[mode].append(spawn(mode, workload, str(seed), timeout=remaining())[0])
        longest = max(longest, time.monotonic() - started)

    imports = []
    if trace:
        imports = [import_times(spawn("setup", timeout=remaining(), flags=("-X", "importtime"))[1])
                   for _ in range(IMPORT_TIME_SAMPLES)]
    return {"setup": setup, "runs": reps["run"], "traces": reps["trace"], "imports": imports}


def end_to_end(data: dict) -> dict[str, float]:
    runs = data["runs"]
    latencies = [x for run in runs for x in run["latencies"]]
    return {
        "setup_s": statistics.median(sample["setup_s"] for sample in data["setup"]),
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "items_per_s": statistics.median(run["attempted"] / run["wall_s"] for run in runs),
        "item_p50_ms": quantile(latencies, 50) * 1e3,
        "item_p90_ms": quantile(latencies, 90) * 1e3,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }


def trace_figures(rep: dict) -> dict[str, float]:
    """Per-function and per-layer figures of one traced repetition, with
    times on the reference scale."""
    speed = rep["wall_s"] / rep["raw_wall_s"]
    out = {f"{layer}.cache_entries": n for layer, n in rep["trace"]["cache_entries"].items()}
    for key, (calls, self_s, errors, no_point, total_s) in rep["trace"]["functions"].items():
        out[f"{key}.no_point"] = no_point
        out[f"{key}.total_s"] = total_s * speed
        for name in (key, key.split(".")[0]):
            for field, value in (("calls", calls), ("self_s", self_s * speed), ("errors", errors)):
                out[f"{name}.{field}"] = out.get(f"{name}.{field}", 0) + value
    return out


def per_layer(data: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (counts from the first traced repetition, times as
    medians) and the counts that differed between traced repetitions."""
    traces = [trace_figures(rep) for rep in data["traces"]]
    unstable = sorted(
        name for name in set().union(*traces)
        if not name.endswith("_s") and len({t.get(name, 0) for t in traces}) > 1
    )
    metrics = {}
    for name in per_layer_units():
        if name == "trace_overhead_frac":
            traced = statistics.median(rep["wall_s"] for rep in data["traces"])
            metrics[name] = traced / statistics.median(rep["wall_s"] for rep in data["runs"]) - 1
        elif name.endswith(".import_s"):
            layer = name.split(".")[0]
            metrics[name] = statistics.median(imp.get(layer, 0.0) for imp in data["imports"])
        elif name.endswith("_s"):
            metrics[name] = statistics.median(t.get(name, 0.0) for t in traces)
        else:
            metrics[name] = traces[0].get(name, 0)
    return metrics, unstable


def raw_times(data: dict) -> dict[str, float]:
    """Unscaled medians, shown beside the reference-scaled metrics."""
    reps = data["runs"] + data["traces"]
    return {
        "raw_setup_s": statistics.median(sample["raw_setup_s"] for sample in data["setup"]),
        "raw_wall_s": statistics.median(run["raw_wall_s"] for run in data["runs"]),
        "raw_to_scaled": statistics.median(run["raw_wall_s"] / run["wall_s"] for run in reps),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "localglobal" / "__init__.py").is_file():
        print(f"perfbench: no localglobal sources under {SRC}", file=sys.stderr)
        return 2
    try:
        data = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    measured = data["runs"] + data["traces"]
    attempted = sum(run["attempted"] for run in measured)
    failed = sum(run["failed"] for run in measured)
    unstable: list[str] = []
    if args.trace:
        values, unstable = per_layer(data)
        units = per_layer_units()
    else:
        values, units = end_to_end(data), END_TO_END
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": measured[0]["attempted"],
        "repetitions": {"untraced": len(data["runs"]), "traced": len(data["traces"])},
        "python": platform.python_version(), "commit": git_commit(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
    }
    result = {
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    print(f"# {json.dumps(meta, sort_keys=True)}")
    for name, unit in units.items():
        print(f"# {name:40} {values[name]:>14.6g} {unit}")
    print(f"# {'error_rate':40} {failed / attempted:>14.6g} ({failed} of {attempted} items)")
    raw = raw_times(data)
    for name, value in raw.items():
        print(f"# {name:40} {value:>14.6g}")
    for run in measured:
        for error in run["errors"]:
            print(f"# error: {error}")
    for name in unstable:
        print(f"# nondeterministic count: {name}")
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stored = {"meta": meta, "error_rate": failed / attempted, "raw": raw,
              "unstable_counts": unstable, **result}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
