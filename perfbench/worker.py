"""One benchmark task in a fresh process: import liftspin.cli, call main(argv).

Usage (from run.py): python3 -I perfbench/worker.py <address-space-MB> <src dir>
with a JSON task spec on stdin.  The address-space cap is set before the
import, so a runaway task ends in MemoryError instead of exhausting the
machine.  The last line on stdout is the JSON result; the CLI's own output
is captured in memory and never reaches this process's stdout.

Before and after each task the worker also times a fixed slice of reference
work that does not use liftspin, in proportion to the task's time (expected
from its previous run, then measured).  run.py uses these samples to
rescale the run's times to one host speed.
"""

import resource
import sys
import time

# mean time of one reference unit on the host the baseline was taken on
REFERENCE_UNIT_S = 0.0019
# share of a task's time spent on reference units, half before, half after
REFERENCE_SHARE = 0.03


def reference_units(task_s):
    return max(1, round(task_s * REFERENCE_SHARE / 2 / REFERENCE_UNIT_S))


def reference_unit():
    """A fixed slice of pure-Python work of the program's kind (tuple-keyed
    dict products and Fractions); returns its wall time."""
    from fractions import Fraction
    start = time.perf_counter()
    poly = {(i % 5 - 2, i % 7 - 3, i, 0): i + 1 for i in range(32)}
    out = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            out[e] = out.get(e, 0) + c1 * c2
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 11)
    return time.perf_counter() - start


def run(cap_mb, src):
    cap = cap_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, src)
    import_start = time.monotonic()
    import liftspin.cli
    import_end = time.monotonic()

    # imported after the timed import, so that they do not count as set-up
    import contextlib
    import hashlib
    import io
    import json
    import os
    import traceback

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import checks

    spec = json.loads(sys.stdin.read())
    result = {"setup_s": import_end - spec["spawned"],
              "import_s": import_end - import_start, "rc": None, "crash": None}
    result["reference_s"] = [reference_unit()
                             for _ in range(reference_units(spec["expected_s"]))]
    if spec["argv"] is None:  # a set-up sample only
        print(json.dumps(result))
        return
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            result["rc"] = liftspin.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            result["rc"] = exc.code if isinstance(exc.code, int) else 2
        except MemoryError:
            result["crash"] = "MemoryError (address-space guard)"
        except Exception:
            result["crash"] = traceback.format_exc(limit=-3)
        result["task_s"] = time.perf_counter() - start
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["reference_s"] += [reference_unit()
                              for _ in range(reference_units(result["task_s"]))]
    text = out.getvalue()
    data = text.encode()
    result["sha256"] = hashlib.sha256(data).hexdigest()
    result["output_bytes"] = len(data)
    result["stderr"] = err.getvalue()[-500:]
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["cli.output_bytes"] = len(data)
    if spec["check"] is not None and result["crash"] is None:
        result["problems"], result["summary"] = checks.check(
            spec["check"], result["rc"], text)
    print(json.dumps(result))


if __name__ == "__main__":
    run(int(sys.argv[1]), sys.argv[2])
