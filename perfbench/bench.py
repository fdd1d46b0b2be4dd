"""One benchmark run: set up a workload from its seed, time ``run_all`` in
fresh worker processes for the run's duration, check every artifact against
the generator's truth, and print the metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics without
``--trace``, the per-layer metrics with it. The lines before it print every
metric the run measured, by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from . import oracle, rulegen, tracing
from .clock import SpeedProbe
from .workloads import WORKLOADS, Prepared, Workload, corpus_urls, prepare

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

# setup_s is the median of at least SETUP_MIN_REPEATS set-ups, each in
# reference seconds (see clock.py); short ones repeat until
# SETUP_MIN_SECONDS have passed, so their median is steadier.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 10
SETUP_MIN_SECONDS = 3.0
MIN_ITERATIONS = 2  # so byte-identity across iterations is always checked
RUN_LIMIT_S = 170.0  # no iteration starts that could end past this

END_TO_END_UNITS = {
    "run_all_s": "s",
    "entries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "truth_accuracy": "ratio",
    "list_accuracy": "ratio",
    "discovery_recall": "ratio",
    "candidate_precision": "ratio",
}
PER_LAYER_NAMES = (
    [f"{name}_s" for name in tracing.SPAN_NAMES]
    + list(tracing.COUNT_NAMES)
    + ["content.token_passes_per_doc", "trace.run_all_s", "trace.overhead_s"]
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "content.token_passes_per_doc":
        return "calls/doc"
    return "count"


def _worker(prepared: Prepared, out: Path, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One thread: numpy's BLAS pools would add threads on a 2-core machine.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--har-dir", str(prepared.har_dir),
        "--rules", str(prepared.rules_path),
        "--out", str(out),
    ] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"traced": traced, "error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def _count_har_entries(prepared: Prepared) -> int:
    return sum(
        len(json.loads(data)["log"]["entries"]) for _, data in prepared.corpus.har_files
    )


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path = WORK_DIR
) -> dict:
    """Run the workload; returns the result object plus run details."""
    started = perf_counter()
    base = work_dir / f"{workload.name}-{seed}-{os.getpid()}"
    corpus_dir = base / "corpus"
    try:
        setup_times: list[float] = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
        ):
            shutil.rmtree(corpus_dir, ignore_errors=True)
            with SpeedProbe() as speed:
                t0 = perf_counter()
                prepared = prepare(workload, seed, corpus_dir)
                elapsed = perf_counter() - t0
            setup_times.append(speed.scaled(elapsed))
        problems = [
            f"generated rule could change a label: {rule}"
            for rule in rulegen.inert_violations(
                prepared.generated,
                corpus_urls(prepared.corpus),
                prepared.corpus.truth_graph.roots,
            )[:5]
        ]

        iterations = []
        window_end = perf_counter() + seconds
        while len(iterations) < MIN_ITERATIONS or perf_counter() < window_end:
            elapsed = perf_counter() - started
            longest = max((it.get("seconds", 0.0) for it in iterations), default=0.0)
            if iterations and elapsed + 1.5 * longest + 5 > RUN_LIMIT_S:
                break
            traced = trace and len(iterations) % 2 == 1
            out = base / f"out-{len(iterations)}"
            iterations.append(_worker(prepared, out, traced, RUN_LIMIT_S - elapsed))
        return _summarize(prepared, base, iterations, setup_times, problems, trace)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if work_dir.is_dir() and not any(work_dir.iterdir()):
            work_dir.rmdir()


def _summarize(prepared, base, iterations, setup_times, problems, trace) -> dict:
    """Judge the iterations and reduce them to metrics.

    An iteration fails when it raised, when its artifacts differ from the
    first good iteration's, or when those reference artifacts fail the
    oracle; traced iterations are held to the same artifacts as untraced.
    """
    for it in iterations:
        if it["error"]:
            print(f"iteration failed: {it['error']}", file=sys.stderr)
    ok = [it for it in iterations if not it["error"]]
    metrics: dict[str, float] = {"setup_s": statistics.median(setup_times)}
    per_layer: dict[str, float] = {}
    good: list[dict] = []
    if ok:
        ref = iterations.index(ok[0])
        out = base / f"out-{ref}"
        artifact_problems = oracle.check_artifacts(out, prepared)
        problems += artifact_problems
        same = [it for it in ok if it["digests"] == ok[0]["digests"]]
        if len(same) < len(ok):
            problems.append(f"{len(ok) - len(same)} iteration(s) wrote different artifacts")
        good = [] if artifact_problems else same
        metrics.update(oracle.quality(out, prepared))
        plain = [it for it in same if not it["traced"]]
        traced = [it for it in same if it["traced"]]
        if plain:
            metrics["run_all_s"] = statistics.median(it["seconds"] for it in plain)
            metrics["entries_per_s"] = _count_har_entries(prepared) / metrics["run_all_s"]
            metrics["peak_rss_mb"] = statistics.median(it["peak_rss_mb"] for it in plain)
        if traced:
            per_layer = {
                name: statistics.median(it["per_layer"][name] for it in traced)
                for name in traced[0]["per_layer"]
            }
            if plain:
                per_layer["trace.overhead_s"] = (
                    per_layer["trace.run_all_s"] - metrics["run_all_s"]
                )
            first = traced[0]["per_layer"]
            if any(
                it["per_layer"][name] != first[name]
                for it in traced[1:]
                for name in tracing.COUNT_NAMES
            ):
                problems.append("per-layer counts differ between traced iterations")
            for name in traced[0]["missing"]:
                print(f"note: {name} no longer exists; its metrics read 0", file=sys.stderr)
    wanted = PER_LAYER_NAMES if trace else list(END_TO_END_UNITS)
    absent = [name for name in wanted if name not in (per_layer if trace else metrics)]
    if absent:
        problems.append(f"metrics not measured: {', '.join(absent)}")
    failed = len(iterations) - len(good)
    return {
        "correct": not problems and failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "problems": problems,
        "iterations": iterations,
        "end_to_end": metrics,
        "per_layer": per_layer,
    }


def _layer_totals(per_layer: dict[str, float]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + per_layer.get(f"{name}_s", 0.0)
    return totals


def report(result: dict, trace: bool) -> str:
    """Every measured metric as a table, then the result line."""
    e2e, layers = result["end_to_end"], result["per_layer"]
    plain = [
        (it["seconds"], it["wall_seconds"], it["speed_factor"])
        for it in result["iterations"]
        if not it["error"] and not it["traced"]
    ]
    rows = [f"{'metric':<34} {'value':>16}  unit"]
    for name, unit in END_TO_END_UNITS.items():
        if name in e2e:
            rows.append(f"{name:<34} {e2e[name]:>16.6g}  {unit}")
    rows.append(
        f"{'run_all_s samples':<34} {len(plain):>16}  count"
        "  (no tail percentile: one needs at least 10 samples beyond it)"
    )
    if plain:
        rows.append(f"{'run_all_s max':<34} {max(s for s, _, _ in plain):>16.6g}  s")
        rows.append(
            f"{'run_all wall time':<34} {statistics.median(w for _, w, _ in plain):>16.6g}  s"
        )
        rows.append(
            f"{'speed factor (ref s / wall s)':<34} "
            f"{statistics.median(f for _, _, f in plain):>16.6g}  ratio"
        )
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    rows.append(f"{'failed_share':<34} {share:>16.6g}  ratio")
    if layers:
        for name in PER_LAYER_NAMES:
            if name in layers:
                rows.append(f"{name:<34} {layers[name]:>16.6g}  {per_layer_unit(name)}")
        for layer, seconds in sorted(_layer_totals(layers).items(), key=lambda kv: -kv[1]):
            rows.append(f"{'self time of layer ' + layer:<34} {seconds:>16.6g}  s")
    for problem in result["problems"]:
        rows.append(f"PROBLEM: {problem}")
    if trace:
        metrics = {
            name: {"value": layers[name], "unit": per_layer_unit(name)}
            for name in PER_LAYER_NAMES
            if name in layers
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
            if name in e2e
        }
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return "\n".join(rows + [json.dumps(line)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(report(result, bool(args.trace)))
    return 0 if result["correct"] else 1
