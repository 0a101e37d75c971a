"""Print the per-layer metrics of traced runs as one table.

    python3 perfbench/table.py                  # every workload traced so far
    python3 perfbench/table.py mc-loss resample-sgd

Reads ``perfbench/out/<workload>/layers.json``, which
``run.py --trace 1`` writes, and prints one column per workload. Rows
that read 0 on every workload are left out.
"""
import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def load(names) -> dict:
    paths = [OUT / n / "layers.json" for n in names] if names else sorted(OUT.glob("*/layers.json"))
    runs = {}
    for path in paths:
        data = json.loads(path.read_text())
        runs[data["workload"]] = data
    return runs


def render(runs: dict) -> str:
    workloads = list(runs)
    metrics = list(next(iter(runs.values()))["metrics"]) if runs else []
    width = max([len(m) for m in metrics] + [len("metric")])
    cols = [max(14, len(w)) for w in workloads]
    lines = ["  ".join([f"{'metric':{width}}"] + [f"{w:>{c}}" for w, c in zip(workloads, cols)])]
    lines.append("  ".join([f"{'(seed, rounds)':{width}}"] + [
        f"{str((runs[w]['seed'], runs[w]['rounds'])):>{c}}" for w, c in zip(workloads, cols)]))
    for metric in metrics:
        values = [runs[w]["metrics"].get(metric, 0.0) for w in workloads]
        if not any(values):
            continue
        lines.append("  ".join([f"{metric:{width}}"] + [f"{v:>{c}.6g}" for v, c in zip(values, cols)]))
    return "\n".join(lines)


def main(argv) -> int:
    runs = load(argv)
    if not runs:
        print("no traced runs under perfbench/out; run perfbench/run.py --trace 1 first",
              file=sys.stderr)
        return 2
    print(render(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
