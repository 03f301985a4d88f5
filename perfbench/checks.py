"""Output checks of the benchmark workloads, run after every pass.

    python perfbench/checks.py WORKLOAD WORKDIR

prints a JSON list of the problems found (empty when every check passes).
The checks parse large artifacts, so they run in their own process: the
measuring process stays small, and a stage's peak RSS, which includes the
memory of the process it was started from, stays the stage's own.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

# file each ingest-formats stage reads, by --format
INGEST_FORMATS = {"csv": "records.csv", "json-lines": "records.jsonl", "riot-match-json": "records.riot.json"}
# planted feature signatures of the default synthetic spec
ARCHETYPES = {(0, 3), (2, 3), (1, 2, 3)}


def read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: Path) -> list[dict]:
    """Rows of a CLI CSV artifact, after its provenance comment line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        fh.readline()
        return list(csv.DictReader(fh))


def adjusted_rand_index(a, b) -> float:
    import numpy as np

    _, a = np.unique(np.asarray(a), return_inverse=True)
    _, b = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([a.size]))
    top = (rows + cols) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def check_ingest(work: Path) -> list[str]:
    """Identical tensors from every format, and the planted counts."""
    expected = read_json(work / "in" / "expected.json")
    problems = []
    ref = None
    for fmt in INGEST_FORMATS:
        summary = read_json(work / "out" / fmt / "ingest_summary.json")
        for key, want in expected.items():
            if summary[key] != want:
                problems.append(f"{fmt}: {key} is {summary[key]}, planted {want}")
        doc = read_json(work / "out" / fmt / "tensor.json")
        view = (doc["dims"], doc["values"], doc["metadata"]["player_ids"], doc["metadata"]["winner"])
        if ref is None:
            ref = view
        elif view != ref:
            problems.append(f"{fmt}: tensor or player ids differ from csv")
    return problems


def check_rank(work: Path) -> list[str]:
    rank = read_json(work / "out" / "rank_selection.json")["selected_rank"]
    return [] if rank == 3 else [f"selected rank {rank}, planted 3"]


def check_pipeline(work: Path) -> list[str]:
    """Rank 3, the planted signatures, and the planted player groups."""
    out = work / "out"
    problems = check_rank(work)
    components = read_json(out / "feature_signatures.json")["components"]
    sigs = {tuple(c["feature_indices"]) for c in components}
    if sigs != ARCHETYPES:
        problems.append(f"feature signatures {sorted(sigs)}, planted {sorted(ARCHETYPES)}")
    truth = {row["player_id"]: row["group"] for row in read_csv(out / "truth_labels.csv")}
    labels = read_json(out / "clusters.json")["labels"]
    ari = adjusted_rand_index([truth[p] for p in labels], list(labels.values()))
    if ari < 0.9:
        problems.append(f"ARI against truth_labels.csv is {ari:.4f} < 0.9")
    return problems


CHECKS = {
    "ingest-formats": check_ingest,
    "pipeline-paper": check_pipeline,
}


def main(argv: list[str]) -> int:
    workload, work = argv[0], Path(argv[1])
    try:
        problems = CHECKS[workload](work)
    except (OSError, KeyError, ValueError) as exc:
        problems = [f"output check could not read the artifacts: {exc!r}"]
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
