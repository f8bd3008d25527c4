"""One fresh-interpreter set-up of a workload, timed by its parent.

    python3 perfbench/setup_probe.py <workload> <manifest.json> <scratch dir>

Imports the package (and its CLI module), builds the workload's graphs and
partitions from the generated inputs, and pays the first-call BLAS/LAPACK
warm-up: what a CLI user pays on every invocation before the first op.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import generate  # noqa: E402
import workloads  # noqa: E402  (imports duolayer and duolayer.cli)

if __name__ == "__main__":
    workload, manifest, scratch = sys.argv[1:4]
    workloads.setup(workload, generate.load_inputs(Path(manifest)), Path(scratch))
