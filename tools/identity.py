"""Write every suite's artifacts for a byte-identity comparison.

    python3 tools/identity.py OUT

Runs all seven experiment kinds at their default configurations for base
seeds 0 and 602, each sequentially and over 2 worker processes, from the
``src`` of the checkout this script sits in. Artifacts go to
``OUT/<kind>/seed<seed>-workers<workers>/``; each run report is rewritten
without ``wall_clock_seconds``, the one field that differs between equal
runs. Two checkouts then compute the same thing exactly when

    diff -r OUT_A OUT_B

prints nothing.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mmspectral.experiments import SUITES, ExperimentConfig, run  # noqa: E402
from mmspectral.serialize import canonical_json  # noqa: E402

SEEDS = (0, 602)
WORKERS = (1, 2)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = Path(argv[0])
    for kind in SUITES:
        for seed in SEEDS:
            for workers in WORKERS:
                out = root / kind / f"seed{seed}-workers{workers}"
                run(ExperimentConfig.build(kind, seed=seed, out=out), workers=workers)
                path = out / f"{kind}-report.json"
                report = json.loads(path.read_text())
                del report["wall_clock_seconds"]
                path.write_text(canonical_json(report) + "\n")
    print(f"wrote {sum(1 for p in root.rglob('*') if p.is_file())} files under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
