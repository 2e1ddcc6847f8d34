"""Every committed ``BENCH_*.json`` is a readable benchmark comparison.

A ``BENCH_*.json`` at the root of the repository records one
``perfbench/compare.py`` comparison of a parent commit and a change: for
each workload and end-to-end metric, both sides' medians and quartiles,
the seed pairs the change won, and the verdict, with the seeds and both
commits.  Each file says whether its numbers were transcribed from
``compare.py``'s printed output.  It may name only the workloads and the
end-to-end metrics that ``BENCHMARK.json`` lists.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = {"better", "worse", "unchanged", "unresolved"}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_every_field(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}

    assert isinstance(bench["transcribed"], bool)
    assert set(bench["commits"]) == {"parent", "change"}
    assert all(isinstance(c, str) and c for c in bench["commits"].values())
    seeds = bench["seeds"]
    assert seeds and all(isinstance(s, int) for s in seeds)
    assert len(set(seeds)) == len(seeds)

    assert bench["workloads"] and set(bench["workloads"]) <= workloads
    for workload, rows in bench["workloads"].items():
        assert rows and set(rows) <= metrics, workload
        for metric, row in rows.items():
            where = f"{workload} {metric}"
            for side in ("parent", "change"):
                q1, median, q3 = (row[side][k] for k in ("q1", "median", "q3"))
                assert all(isinstance(v, (int, float)) for v in (q1, median, q3)), where
                assert q1 <= median <= q3, where
            assert isinstance(row["wins"], int) and 0 <= row["wins"] <= len(seeds), where
            assert row["verdict"] in VERDICTS, where
