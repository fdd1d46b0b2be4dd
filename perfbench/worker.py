"""One ``pipeline.run_all`` in a fresh process, on a corpus another process
wrote: ``python -m perfbench.worker --har-dir D --rules F --out O [--trace]``.

A fresh process per iteration makes each measurement as cold as one
``widetrack run-all`` invocation, and its peak RSS counts only the run, not
corpus generation. Prints one JSON line: the run's time in reference
seconds (see ``clock``), its wall time, peak RSS, a digest of every artifact
and, when traced, the per-layer metrics, whose times are in reference
seconds too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import traceback
from pathlib import Path
from time import perf_counter

from widetrack.pipeline import PipelineConfig, run_all

from .clock import SpeedProbe, footprint_mb
from .tracing import Tracer


def digests(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def peak_rss_mb() -> float:
    """This process's peak resident set since its exec.

    Not ``ru_maxrss``: Linux carries that over from the image the process
    replaced at exec, here the parent that spawned it and holds the corpus.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--har-dir", type=Path, required=True)
    parser.add_argument("--rules", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    cfg = PipelineConfig(har_dir=args.har_dir, rules_files=[args.rules], out_dir=args.out)

    result: dict = {"traced": args.trace, "error": None}
    tracer = Tracer() if args.trace else None
    speed = SpeedProbe()
    start = perf_counter()
    try:
        with speed:
            if tracer is None:
                run_all(cfg)
            else:
                with tracer:
                    tracer.run(run_all, cfg)
    except Exception:  # reported as a failed iteration, not a crash
        result["error"] = traceback.format_exc()
    result["wall_seconds"] = perf_counter() - start
    result["speed_factor"] = speed.factor()
    result["seconds"] = speed.scaled(result["wall_seconds"])
    result["peak_rss_mb"] = peak_rss_mb() - footprint_mb()
    if tracer is not None:
        result["per_layer"] = {
            name: speed.scaled(value) if name.endswith("_s") else value
            for name, value in tracer.per_layer().items()
        }
        result["missing"] = tracer.missing
    result["digests"] = digests(args.out) if args.out.is_dir() else {}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
