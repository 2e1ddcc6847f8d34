#!/usr/bin/env python3
"""Write references.json: the records of every cli-demos and opf-checks op
run at pqsim's default seed, as cycle 0 runs them.

    python3 perfbench/capture_references.py

Run it only on the commit the references belong to (they were captured at
the seed commit 82bbeb6); later commits are checked against them.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    references = {"cli-demos": {}, "opf-checks": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for blocks in workloads.CliDemos(0, Path(tmp)).cycle(0):
            op = blocks.ops[0]
            result = op.call()
            if result.status != 0 or result.stderr:
                raise SystemExit(f"{op.label}: exit {result.status}\n{result.stderr}")
            references["cli-demos"][op.label] = result.stdout
    for label, (call, _) in workloads.OPF_OPS.items():
        references["opf-checks"][label] = workloads.opf_record(call(workloads.DEFAULT_SEED))
    with open(workloads.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
