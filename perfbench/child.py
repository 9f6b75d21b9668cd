"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py setup SRC STARTED
    python3 perfbench/child.py run|trace SRC STARTED WORKLOAD SEED

SRC is the directory holding the `localglobal` package; STARTED is the
parent's `time.monotonic()` just before it started this process, so the
set-up time covers interpreter start-up plus importing all nine modules.
`run` times the workload's items with tracing off, `trace` with spans
around every public function.  The last line of stdout is one JSON object.

Only `sys` and `time` are imported before the program, so that set-up
time is the program's own.  Times are reported on the reference scale of
`speed.py`; the raw durations are kept alongside.
"""

import sys
import time

LAYERS = ("exact", "padic", "symbols", "cubic", "tower", "reichardt_lind", "elkies", "selmer", "cli")


def import_program(src: str) -> dict:
    """Import the nine modules from SRC, refusing any other copy."""
    import os

    sys.path.insert(0, src)
    package = __import__("localglobal")  # unlike importlib, shows in -X importtime
    where = os.path.realpath(os.path.dirname(package.__file__))
    if os.path.dirname(where) != os.path.realpath(src):
        raise ImportError(f"localglobal was imported from {where}, not from {src}")
    for layer in LAYERS:
        __import__(f"localglobal.{layer}")
    return {layer: sys.modules[f"localglobal.{layer}"] for layer in LAYERS}


def run_items(items: list, lib, tracer=None) -> dict:
    """Feed the items one after another (closed loop, one client) and
    check each outcome; only the call into the program is timed."""
    import speed
    import workloads

    timings, errors = [], []  # (start, end, time spent sampling the speed)
    with speed.SpeedProbe() as probe:
        if tracer is not None:
            tracer.install(probe.paused)
        try:
            for item in items:
                paused, start = probe.paused[0], time.perf_counter()
                try:
                    outcome = workloads.execute(item, lib)
                except Exception as exc:  # an item that raised is an error of that item
                    outcome, problem = None, f"{item}: {type(exc).__name__}: {exc}"
                else:
                    problem = None
                timings.append((start, time.perf_counter(), probe.paused[0] - paused))
                probe.sample()
                if problem is None:
                    try:
                        problem = workloads.check(item, outcome)
                    except (KeyError, TypeError, ValueError, AttributeError) as exc:
                        problem = f"{item}: output of an unexpected shape: {exc!r}"
                if problem:
                    errors.append(problem)
        finally:
            if tracer is not None:
                tracer.uninstall()
    raw = [end - start - paused for start, end, paused in timings]
    scaled = [took * probe.scale(start, end) for took, (start, end, _) in zip(raw, timings)]
    return {"wall_s": sum(scaled), "raw_wall_s": sum(raw), "latencies": scaled,
            "attempted": len(items), "failed": len(errors), "errors": errors[:5]}


def main(argv: list) -> None:
    mode, src, started = argv[0], argv[1], float(argv[2])
    modules = import_program(src)
    setup_s = time.monotonic() - started
    if mode == "setup":
        import speed

        print('{"setup_s": %r, "raw_setup_s": %r}' % (setup_s * speed.reference_scale(), setup_s))
        return

    import json
    import resource
    from types import SimpleNamespace

    import spans
    import workloads

    if not __debug__:
        raise SystemExit("run without -O: the program's self-checks are assert statements")
    workload, seed = argv[3], int(argv[4])
    items = workloads.build(workload, seed)
    tracer = spans.Tracer(modules) if mode == "trace" else None
    result = run_items(items, SimpleNamespace(**modules), tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
