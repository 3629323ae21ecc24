"""spectrekit benchmark: seeded CLI job lists, timed end to end, gated for
correctness, with an optional traced run for per-layer numbers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {pointsets,achievement,torus} \
        --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client.  Each job is one
``python -m spectrekit`` process; the next starts when it has exited.  The
seed draws the input documents, which are written to a temporary directory
under ``.bench_work/`` in the checkout; the program sees only those files.

A run sets up three times (generate the documents, then one untimed warm-up
call that compiles the bytecode into a fresh cache), then repeats passes
over the job list until ``--seconds`` have passed.  Every output is checked
once against an independent route (``gate.py``) and every repeat must be
byte-identical to the checked one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, where each job is replayed by
``trace_job.py`` in a fresh interpreter, and reports per-layer self times
and counts.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

sys.dont_write_bytecode = True  # the harness leaves no bytecode in the checkout

import gate as g  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
PROBE_EVERY = 4  # jobs between two trivial calls that sample the start-up cost
JOB_TIMEOUT_S = 60
TAIL_BEYOND = 10
TINY_SET = {"group": {"type": "Qd", "dim": 1, "metric": "sup"},
            "points": [["0"], ["1/4"], ["1/2"], ["3/4"]]}
TINY_SPECTRE = {"group": TINY_SET["group"],
                "points": [["-1/2"], ["-1/4"], ["0"], ["1/4"], ["1/2"]]}


class Runner:
    """Runs jobs as child processes in one work directory."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"),
                        PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.out_path = os.path.join(workdir, "stdout.bin")
        self.spans_path = os.path.join(workdir, "spans.json")

    def run(self, argv: List[str], traced: bool = False) -> Tuple[float, Optional[int], bytes]:
        """Wall time, exit code (None on timeout) and stdout of one job."""
        if traced:
            if os.path.exists(self.spans_path):
                os.remove(self.spans_path)
            cmd = [sys.executable, os.path.join(HERE, "trace_job.py"), self.spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "spectrekit", *argv]
        killed = []

        def kill() -> None:
            killed.append(True)
            proc.kill()

        with open(self.out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=out,
                                    stderr=subprocess.DEVNULL)
            # A blocking wait: Popen.wait(timeout) polls in steps of up to
            # 50 ms, which would quantize every job time.
            watchdog = threading.Timer(JOB_TIMEOUT_S, kill)
            watchdog.start()
            try:
                code: Optional[int] = proc.wait()
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        if killed:
            code = None
        with open(self.out_path, "rb") as fh:
            return wall, code, fh.read()

    def spans(self) -> Dict[str, Any]:
        """The spans the last traced job wrote (none if it was killed)."""
        if not os.path.exists(self.spans_path):
            return {"import_s": 0.0, "spans": []}
        with open(self.spans_path, encoding="utf-8") as fh:
            return json.load(fh)


def setup(root: str, base: str, workload: str, seed: int, trace: bool):
    """Generate the documents and make the untimed warm-up call(s)."""
    start = time.perf_counter()
    workdir = tempfile.mkdtemp(prefix="setup-", dir=base)
    jobs = workloads.build(workload, seed, workdir)
    with open(os.path.join(workdir, "tiny.json"), "w", encoding="utf-8") as fh:
        json.dump(TINY_SET, fh)
    runner = Runner(root, workdir)
    runner.run(["spectre", "--set", "tiny.json"])
    if trace:
        runner.run(["spectre", "--set", "tiny.json"], traced=True)
    return time.perf_counter() - start, jobs, runner


# -- per-layer aggregation ----------------------------------------------------

def layer_totals(record: Dict[str, Any]) -> Dict[str, float]:
    """Self time per span label (a span minus its direct children) plus the
    counts the spans carry."""
    spans = record["spans"]
    child = [0.0] * len(spans)
    for label, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    totals["cli.import_s"] = record["import_s"]
    for (label, start, end, parent, counts), inner in zip(spans, child):
        if parent is not None:
            totals[label + "_s"] += (end - start) - inner
        for key, value in (counts or {}).items():
            totals[key] += value
    return totals


# -- correctness --------------------------------------------------------------

class Ledger:
    """Checks each job's first output and compares every repeat with it."""

    def __init__(self, gate: g.Gate, jobs):
        self.gate = gate
        self.jobs = {j.name: j for j in jobs}
        self.first: Dict[str, Tuple[Optional[int], bytes]] = {}
        self.runs: Dict[str, List[Tuple[Optional[int], str]]] = defaultdict(list)

    def record(self, name: str, code: Optional[int], stdout: bytes) -> None:
        digest = hashlib.sha256(stdout).hexdigest()
        self.first.setdefault(name, (code, stdout))
        self.runs[name].append((code, digest))

    def verdicts(self) -> Tuple[Dict[str, str], Dict[str, str], Dict[str, Any]]:
        """Per job: exit-code failures, wrong outputs, parsed first output."""
        bad_exit, wrong, parsed = {}, {}, {}
        for name, job in self.jobs.items():
            code, stdout = self.first[name]
            out = None
            if job.expect != 3 and code is not None:
                try:
                    out = json.loads(stdout)
                except ValueError:
                    wrong[name] = "stdout is not JSON"
            parsed[name] = out
            if not callable(job.expect):
                expect = job.expect
            elif out is not None:
                expect = job.expect(out)
            else:
                expect = "0 or 1 with a JSON verdict"
            if code != expect:
                bad_exit[name] = f"exit {code}, README prescribes {expect}"
                continue
            if job.expect == 3 and stdout:
                wrong[name] = "a refused job printed a result"
            elif job.check is not None and out is not None and name not in wrong:
                reason = job.check(self.gate, out)
                if reason:
                    wrong[name] = reason
            if job.same_as and stdout != self.first[job.same_as][1]:
                wrong[name] = f"output differs from {job.same_as}"
            if len({d for _, d in self.runs[name]}) > 1 or \
                    len({c for c, _ in self.runs[name]}) > 1:
                wrong[name] = "a repeat differs from the checked output"
        return bad_exit, wrong, parsed


def outcome(out: Any) -> Dict[str, Any]:
    """Outcome counts read off a job's verified output."""
    if not isinstance(out, dict):
        return {}
    counts = {}
    for key in ("points", "values", "gaps", "axis_gaps", "rect_gaps", "rows"):
        if isinstance(out.get(key), list):
            counts[key] = len(out[key])
    for key in ("scanned", "found", "ok", "passed"):
        if key in out:
            counts[key] = out[key]
    if "set" in out:
        counts["points"] = len(out["set"]["points"])
    return counts


# -- main ---------------------------------------------------------------------

def percentile_tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND values above it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("BENCHMARK.json", "src/spectrekit/__main__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: {need} is missing; run from the root of a spectrekit checkout",
                  file=sys.stderr)
            return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    gate = g.Gate(g.load_oracles(root))
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    try:
        return measure(args, spec, root, base, gate)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def measure(args, spec, root: str, base: str, gate: g.Gate) -> int:
    trace = bool(args.trace)
    setup_times = []
    for _ in range(SETUPS):
        elapsed, jobs, runner = setup(root, base, args.workload, args.seed, trace)
        setup_times.append(elapsed)
    ledger = Ledger(gate, jobs)

    job_walls: Dict[str, List[float]] = defaultdict(list)
    pass_walls: List[float] = []
    traced_walls: List[float] = []
    layer_passes: List[Dict[str, float]] = []
    startup: List[float] = []
    # Whole passes only: start another while it is expected to end in time.
    begin = time.perf_counter()
    while not pass_walls or (time.perf_counter() - begin) * (1 + 1 / len(pass_walls)) \
            <= args.seconds:
        walls = []
        for i, job in enumerate(jobs):
            if not trace and i % PROBE_EVERY == 0:
                startup.append(trivial_call(runner))
            wall, code, stdout = runner.run(job.argv)
            walls.append(wall)
            job_walls[job.name].append(wall)
            ledger.record(job.name, code, stdout)
        pass_walls.append(sum(walls))
        if trace:
            totals: Dict[str, float] = defaultdict(float)
            walls = []
            for job in jobs:
                wall, code, stdout = runner.run(job.argv, traced=True)
                walls.append(wall)
                ledger.record(job.name, code, stdout)
                for key, value in layer_totals(runner.spans()).items():
                    totals[key] += value
            traced_walls.append(sum(walls))
            layer_passes.append(totals)

    bad_exit, wrong, parsed = ledger.verdicts()
    failed_jobs = set(bad_exit) | set(wrong)
    attempted = sum(len(r) for r in ledger.runs.values())
    failed = sum(len(ledger.runs[name]) for name in failed_jobs)

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "platform": platform.platform()}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    print(json.dumps({"environment": env, "workload": args.workload, "why": why,
                      "seed": args.seed, "jobs": len(jobs), "passes": len(pass_walls)}))
    for job in jobs:
        print(json.dumps({"job": job.name,
                          "median_s": round(statistics.median(job_walls[job.name]), 6),
                          "inputs": job.props, "outcome": outcome(parsed[job.name]),
                          "failure": bad_exit.get(job.name) or wrong.get(job.name)}))
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} jobs attempted)")

    if trace:
        metrics = per_layer(spec, jobs, layer_passes, traced_walls, pass_walls,
                            len(failed_jobs))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        slot = [statistics.median(job_walls[j.name]) for j in jobs]
        tail, pct = percentile_tail(slot)
        print(f"job_s.tail is p{pct:.1f} of {len(slot)} jobs, each the median of "
              f"{len(pass_walls)} passes; cli_startup_s is the median of {len(startup)} calls")
        metrics = {
            "wall_s": statistics.median(pass_walls),
            "job_s.p50": statistics.median(slot),
            "job_s.tail": tail,
            "cli_startup_s": statistics.median(startup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def trivial_call(runner: Runner) -> float:
    """Wall time of the cheapest command, checked like any other output."""
    wall, code, stdout = runner.run(["spectre", "--set", "tiny.json"])
    if code != 0 or json.loads(stdout) != TINY_SPECTRE:
        raise SystemExit("error: the trivial spectre call gave a wrong answer")
    return wall


def per_layer(spec, jobs, layer_passes, traced_walls, pass_walls,
              failed_jobs) -> Dict[str, float]:
    """Median over traced passes of each layer's per-pass total."""
    metrics: Dict[str, float] = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = statistics.median(p.get(m["name"], 0.0) for p in layer_passes)
    attempts = metrics["series.subset_sums_attempts"]
    metrics["series.distinct_ratio"] = (
        metrics["series.subset_sums_distinct"] / attempts if attempts else 0.0)
    metrics["cli.jobs"] = len(jobs)
    metrics["cli.failed"] = failed_jobs
    metrics["grid.scale_bits_max"] = max(j.props.get("scale_bits", 1) for j in jobs)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(pass_walls) - 1)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
