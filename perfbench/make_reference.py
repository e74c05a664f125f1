"""Regenerate the stored reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py [workload ...]

Run from the repository root at the commit whose outputs the benchmark
should hold later commits to; a change that is meant to alter results
regenerates them in its own commit.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before NumPy loads

sys.path.insert(0, str(run.ROOT / "src"))

from workloads import INPUT_SETS, WORKLOADS  # noqa: E402


def main(names) -> None:
    out_dir = run.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        work = Path(tempfile.mkdtemp(prefix="reference-", dir=out_dir))
        try:
            sets = []
            for input_set in range(INPUT_SETS):
                workload = WORKLOADS[name](input_set, work, None)
                workload.setup()
                sets.append(workload.reference())
                print(f"{name}: input set {input_set} done", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = Path(__file__).resolve().parent / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        body = ",\n".join(json.dumps(s) for s in sets)
        path.write_text(f'{{"workload": "{name}", "sets": [\n{body}\n]}}\n',
                        encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
