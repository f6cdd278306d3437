"""liftspin benchmark: the README's CLI commands as tasks with known answers.

    python3 perfbench/run.py --workload {symbolic,numeric,expand} --seed N \
        --seconds S --trace {0,1}

A single-process, closed-loop benchmark with one client.  Each task runs in a
fresh worker process (perfbench/worker.py) that imports liftspin.cli and
calls cli.main(argv) in-process, so every task pays for eigenforms, beta
tables and caches the way a CLI user does, while interpreter start-up stays
out of the task time and is reported as setup_s.  One worker runs at a time.
Rounds (one pass over the workload's task list, in a seeded order) repeat
until --seconds have passed.

--trace 0 prints the end-to-end metrics of untraced rounds.  --trace 1
alternates untraced rounds with rounds whose workers wrap liftspin's layers
(perfbench/tracing.py), plus one traced round on a second seed, and prints
the per-layer metrics.  Every task output is checked against a known answer
computed without liftspin (perfbench/checks.py) outside the timed region.
The last stdout line is the JSON result; the line before it holds details
and the run's context.

The host this runs on is shared, and its speed drifts by 20% and more over
tens of seconds.  Every worker therefore also times fixed reference work
around its task, in proportion to the task's time, and the end-to-end
times are reported rescaled to the baseline host's speed: wall seconds
times REFERENCE_UNIT_S over the run's mean reference-unit time.  The raw
wall times are in the detail line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import REFERENCE_UNIT_S  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# address-space cap per worker: the degree-64 expansion peaks near 0.4 GB,
# a degree-128 one passes 4.8 GB and must fail here instead
WORKER_MEMORY_MB = 2048
TASK_TIMEOUT_S = 60.0
# workers that only import liftspin.cli, so that setup_s has enough samples
# in workloads with few, long tasks
SETUP_SAMPLES = 15
# no run may take longer than this, whatever --seconds says
HARD_LIMIT_S = 165.0

END_TO_END = {"setup_s": "s", "round_s_p50": "s", "task_s_p50": "s",
              "task_s_tail": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.encode_s": "s", "cli.output_bytes": "bytes",
    "laurent.mul_calls": "count", "laurent.mul_s": "s", "laurent.add_calls": "count",
    "laurent.add_s": "s", "laurent.terms_calls": "count", "laurent.terms_s": "s",
    "laurent.eval_calls": "count", "laurent.eval_s": "s",
    "beta.tables_built": "count", "beta.lookups": "count", "beta.busy_s": "s",
    "satake.param_sets": "count", "satake.busy_s": "s",
    "euler.factors_built": "count", "euler.roots_built": "count",
    "euler.max_degree": "count", "euler.build_s": "s", "euler.expand_s": "s",
    "euler.expanded_terms": "count", "euler.to_json_s": "s", "euler.root_multiset_s": "s",
    "euler.instantiations": "count", "euler.instantiate_s": "s",
    "identities.verdicts": "count", "identities.sides_s": "s", "identities.compare_s": "s",
    "identities.numeric_compare_s": "s", "identities.primes_checked": "count",
    "identities.satake_values_s": "s",
    "qexp.eisenstein_s": "s", "qexp.basis_s": "s", "qexp.eigenforms_s": "s",
    "qexp.forms_built": "count", "qexp.series_mul_calls": "count", "qexp.series_mul_s": "s",
    "qexp.primes_s": "s", "qexp.table_load_s": "s", "qexp.numeric_satake_calls": "count",
    "qexp.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# per-round counts that must not depend on the seed
NEUTRAL = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))


class Bench:
    """Runs tasks in workers and remembers the verified output of each argv."""

    def __init__(self, run_dir, seconds):
        self.run_dir = run_dir
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.verified = {}
        self.last_task_s = {}
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("LIFTSPIN_")}

    def time_left(self):
        return time.monotonic() < self.deadline

    def run_task(self, task, trace=False):
        """One task in a fresh worker; status is ok, wrong or error."""
        argv = tuple(task["argv"] or ())
        known = self.verified.get(argv)
        timeout = min(TASK_TIMEOUT_S, self.hard_deadline - time.monotonic())
        if timeout <= 0:
            return None
        spawned = time.monotonic()
        spec = {"argv": list(argv) if argv else None, "trace": trace, "spawned": spawned,
                "check": None if known else task["check"],
                "expected_s": self.last_task_s.get(argv, 0.0)}
        proc = subprocess.Popen(
            [sys.executable, "-I", str(WORKER), str(WORKER_MEMORY_MB), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=self.run_dir, env=self.env)
        try:
            out, err = proc.communicate(json.dumps(spec).encode(), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"argv": argv, "status": "error", "why": f"timeout after {timeout:.0f} s"}
        lines = out.decode().strip().splitlines()
        try:
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except ValueError:
            res = None
        if res is None:
            return {"argv": argv, "status": "error",
                    "why": f"worker exit {proc.returncode}: {err.decode()[-300:]}"}
        res["argv"] = argv
        if "task_s" in res:
            self.last_task_s[argv] = res["task_s"]
        if not argv:
            res["status"] = "ok"
        elif res["crash"] is not None:
            res["status"], res["why"] = "error", res["crash"]
        elif known is not None:
            same = (res["sha256"], res["rc"]) == (known["sha256"], known["rc"])
            res["status"] = known["status"] if same else "wrong"
            res["why"] = known["why"] if same else "output differs from the checked run"
            res["summary"] = known["summary"]
        else:
            res["status"] = "wrong" if res["problems"] else "ok"
            res["why"] = "; ".join(res["problems"][:3])
            self.verified[argv] = res
        return res

    def run_round(self, spec, trace=False):
        tasks = list(spec["tasks"])
        spec["rng"].shuffle(tasks)
        results = []
        for task in tasks:
            res = self.run_task(task, trace)
            if res is None:
                break
            results.append(res)
        by_argv = {r["argv"]: r for r in results}
        for a, b in spec.get("same_bytes", ()):
            if a in by_argv and b in by_argv and \
                    by_argv[a].get("sha256") != by_argv[b].get("sha256"):
                for side in (a, b):
                    _mark_wrong(by_argv[side], "lhs and rhs output bytes differ")
        for a, b in spec.get("same_value", ()):
            if a in by_argv and b in by_argv:
                va = complex(*by_argv[a].get("summary", {}).get("value", (0, 0)))
                vb = complex(*by_argv[b].get("summary", {}).get("value", (0, 0)))
                if abs(va - vb) > 1e-9 * max(abs(va), abs(vb)):
                    for side in (a, b):
                        _mark_wrong(by_argv[side], f"lhs {va} and rhs {vb} differ")
        return {"results": results, "complete": len(results) == len(tasks),
                "seed": spec["seed"]}

    def measure_setup(self, count):
        """Spawn-to-import times of workers that run no task."""
        samples = [self.run_task({"argv": None, "check": None}) for _ in range(count)]
        return [r for r in samples if r is not None and "setup_s" in r]

    def prepare_references(self, spec):
        """Run each task's reference (the factored form of an expanded task)
        and hand the root list it produced to the task's check."""
        for task in spec["tasks"]:
            ref = task.get("reference")
            if ref is None:
                continue
            res = self.run_task(ref)
            if res is not None and res["status"] == "ok":
                task["check"]["roots"] = res["summary"]["roots"]


def _mark_wrong(res, why):
    if res["status"] == "ok":
        res["status"], res["why"] = "wrong", why


def _median(values):
    return statistics.median(values) if values else 0.0


def _round_s(rnd):
    return sum(r.get("task_s", 0.0) for r in rnd["results"])


def tail(samples):
    """(value, percentile, samples beyond it) of the highest percentile with
    at least 10 samples beyond it, but never below p90 (nearest rank): with
    fewer than 100 samples the 10-beyond rule would fall to a low percentile
    whose sample jumps between task kinds as the round count changes."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return 0.0, 100.0, 0
    index = max(n - 11, math.ceil(0.9 * n) - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def host_speed(workers):
    """Reference-unit time of the baseline host over the mean one measured
    in these workers: below 1 while the host runs slower than at baseline."""
    units = [t for r in workers for t in r.get("reference_s", ())]
    return REFERENCE_UNIT_S / statistics.fmean(units) if units else 1.0


def end_to_end(rounds, setups):
    """Times are wall seconds rescaled by host_speed(); raw ones go in detail."""
    results = [r for rnd in rounds for r in rnd["results"]]
    times = [r["task_s"] for r in results if "task_s" in r]
    complete = [rnd for rnd in rounds if rnd["complete"]] or rounds
    tail_value, tail_pct, tail_beyond = tail(times)
    raw = {
        "setup_s": _median([r["setup_s"] for r in setups + results if "setup_s" in r]),
        "round_s_p50": _median([_round_s(rnd) for rnd in complete]),
        "task_s_p50": _median(times),
        "task_s_tail": tail_value,
    }
    speed = host_speed(setups + results)
    metrics = {name: value * speed for name, value in raw.items()}
    metrics["peak_rss_mb"] = max((r["maxrss_kb"] for r in results if "maxrss_kb" in r),
                                 default=0) / 1024
    attempted = len(results)
    wrong = sum(r["status"] == "wrong" for r in results)
    errors = sum(r["status"] == "error" for r in results)
    detail = {
        "host_speed": speed, "raw_wall_s": raw,
        "rounds": len(rounds), "complete_rounds": len(complete), "task_samples": len(times),
        "task_s_tail_percentile": tail_pct, "task_s_tail_samples_beyond": tail_beyond,
        "round_s": [round(_round_s(rnd), 4) for rnd in complete],
        "wrong_result_rate": wrong / attempted if attempted else 0.0,
        "error_rate": errors / attempted if attempted else 0.0,
        "per_task_s_p50": _per_task(results),
        "failures": sorted({f"{' '.join(r['argv'])}: {r['status']}: {r['why']}"
                            for r in results if r["status"] != "ok"}),
    }
    return metrics, attempted, wrong + errors, detail


def _per_task(results):
    times = {}
    for r in results:
        if "task_s" in r:
            times.setdefault(" ".join(r["argv"]), []).append(r["task_s"])
    return {argv: round(_median(v), 4) for argv, v in sorted(times.items())}


def per_layer(traced, untraced):
    """Median over traced rounds of each round's summed layer metrics."""
    per_round = []
    for rnd in traced:
        total = dict.fromkeys(PER_LAYER, 0.0)
        for res in rnd["results"]:
            for name, value in res.get("layers", {}).items():
                if name == "euler.max_degree":
                    total[name] = max(total[name], value)
                elif name in total:
                    total[name] += value
        per_round.append(total)
    metrics = {name: _median([r[name] for r in per_round]) for name in PER_LAYER}
    metrics["cli.import_s"] = _median([res["import_s"] for rnd in traced
                                       for res in rnd["results"] if "import_s" in res])
    base = _median([_round_s(rnd) for rnd in untraced])
    metrics["trace.overhead_ratio"] = (_median([_round_s(rnd) for rnd in traced]) / base
                                       if base else 0.0)
    return metrics, per_round


def sanity(workload, seed, traced, per_round):
    """Checks that the traced run measures what it claims (reported, not gated)."""
    out = {}
    results = [res for rnd in traced for res in rnd["results"]]
    layers = [res.get("layers", {}) for res in results]
    qexp_work = sum(l.get("qexp.self_s", 0) + l.get("qexp.series_mul_calls", 0)
                    + l.get("qexp.numeric_satake_calls", 0) for l in layers)
    if workload == "numeric":
        builders = [(res, l) for res, l in zip(results, layers)
                    if l.get("qexp.forms_built", 0) > 0]
        share = (sum(l["qexp.self_s"] for _, l in builders)
                 / max(sum(res["task_s"] for res, _ in builders), 1e-12))
        out["qexp_share_of_eigenform_tasks"] = {"value": share, "pass": share >= 0.8}
    else:
        out["qexp_idle"] = {"value": qexp_work, "pass": qexp_work == 0}
    if workload == "expand":
        share = _median([(r["euler.expand_s"] + r["cli.encode_s"] + r["euler.to_json_s"])
                         / max(_round_s(rnd), 1e-12) for r, rnd in zip(per_round, traced)])
        out["expand_encode_json_share"] = {"value": share, "pass": share >= 0.8}
    out["traced_outputs_match_untraced"] = {
        "pass": all(res["status"] == "ok" for res in results)}
    own_counts, partner_counts = [], []
    for r, rnd in zip(per_round, traced):
        counts = {name: r[name] for name in NEUTRAL}
        (own_counts if rnd["seed"] == seed else partner_counts).append(counts)
    differing = sorted({name for a in own_counts for b in partner_counts
                        for name in NEUTRAL if a[name] != b[name]})
    out["seed_neutral_counts"] = {"pass": bool(partner_counts and own_counts) and not differing,
                                  "differing": differing}
    return out


def context(seed, workload, seconds, trace):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or commit
    src_loc = sum(len(p.read_text(encoding="utf-8").splitlines())
                  for p in sorted((SRC / "liftspin").glob("*.py")))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "commit": commit, "src_loc": src_loc}


def run(args, run_dir):
    bench = Bench(run_dir, args.seconds)
    spec = workloads.build(args.workload, args.seed, run_dir)
    setups = bench.measure_setup(SETUP_SAMPLES)
    bench.prepare_references(spec)
    probes = [bench.run_task(p) for p in spec.get("probes", ())]
    untraced, traced = [], []
    if args.trace:
        other = workloads.build(args.workload, args.seed + 1, run_dir)
        bench.prepare_references(other)
        untraced.append(bench.run_round(spec))
        traced.append(bench.run_round(spec, trace=True))
        traced.append(bench.run_round(other, trace=True))
        while bench.time_left() and time.monotonic() < bench.hard_deadline:
            untraced.append(bench.run_round(spec))
            if bench.time_left():
                traced.append(bench.run_round(spec, trace=True))
    else:
        untraced.append(bench.run_round(spec))
        while (bench.time_left() or len(untraced) < spec["min_rounds"]) \
                and time.monotonic() < bench.hard_deadline:
            untraced.append(bench.run_round(spec))

    metrics, attempted, failed, detail = end_to_end(untraced + traced, setups)
    if args.trace:
        e2e = end_to_end(untraced, setups)[0]
        metrics, per_round = per_layer(traced, untraced)
        detail["untraced"] = e2e
        detail["sanity"] = sanity(args.workload, args.seed, traced, per_round)
    detail["defect_probes"] = [
        {"argv": " ".join(p["argv"]), "status": p["status"], "why": p["why"][-200:]}
        for p in probes if p is not None]
    if probes:
        detail["defect_probe_rates"] = {
            "wrong_result_rate": sum(p["status"] == "wrong" for p in probes) / len(probes),
            "error_rate": sum(p["status"] == "error" for p in probes) / len(probes)}
    detail["context"] = context(args.seed, args.workload, args.seconds, args.trace)
    detail["wall_s"] = time.monotonic() - bench.start
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    rates = {"wrong_result_rate": detail["wrong_result_rate"], "error_rate": detail["error_rate"]}
    rates.update({f"defect_probe_{k}": v for k, v in detail.get("defect_probe_rates", {}).items()})
    for name, value in rates.items():
        print(f"{name:32s} {value:14.6g} ratio")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "liftspin" / "cli.py").is_file():
        print(f"perfbench: no liftspin sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=work)
    try:
        run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
