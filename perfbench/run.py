"""Benchmark entry point, run from the repository root:

    python3 perfbench/run.py --workload graph_dense --seed 7 --seconds 20 --trace 0

Workloads and metrics are described in perfbench/README.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "widetrack" / "pipeline.py").is_file():
        sys.exit(f"perfbench: no widetrack sources under {ROOT / 'src'}; nothing to measure")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.bench import main

    sys.exit(main())
