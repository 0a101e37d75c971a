"""Write every suite's artifacts for a byte-identity comparison, or record
and check their digests.

    python3 tools/identity.py OUT
    python3 tools/identity.py --write IDENTITY.json
    python3 tools/identity.py --check IDENTITY.json

Runs all seven experiment kinds at their default configurations for base
seeds 0 and 602, each sequentially and over 2 worker processes, from the
``src`` of the checkout this script sits in. Artifacts go to
``OUT/<kind>/seed<seed>-workers<workers>/``; each run report is rewritten
without ``wall_clock_seconds``, the one field that differs between equal
runs. Two checkouts then compute the same thing exactly when

    diff -r OUT_A OUT_B

prints nothing.

``--write`` runs the same into a temporary directory and records the
sha256 of each file, with the platform fields that decide its bits:
numpy's version, its OpenBLAS version and the OpenBLAS core picked at run
time (a DYNAMIC_ARCH build picks its kernels per CPU). ``--check``
recomputes the kinds the file records and exits 0 when every digest
matches, 1 naming each file that differs, is missing or is new, 2,
computing nothing and naming each field that differs, when the platform
fields differ from the file's, and 3, naming the kind, base seed and
worker count of the run and the exception it raised, when a suite
raises: a crash is not a moved file.
"""
import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from mmspectral.experiments import SUITES, ExperimentConfig, run  # noqa: E402
from mmspectral.serialize import canonical_json  # noqa: E402

SEEDS = (0, 602)
WORKERS = (1, 2)


class RunFailed(Exception):
    """A suite run raised; the message names the run and its exception."""


def write_runs(root: Path, kinds=tuple(SUITES)) -> None:
    for kind in kinds:
        for seed in SEEDS:
            for workers in WORKERS:
                out = root / kind / f"seed{seed}-workers{workers}"
                try:
                    run(ExperimentConfig.build(kind, seed=seed, out=out), workers=workers)
                except Exception as exc:
                    raise RunFailed(f"{kind} at base seed {seed} over {workers} worker(s) raised {exc!r}") from exc
                path = out / f"{kind}-report.json"
                report = json.loads(path.read_text())
                del report["wall_clock_seconds"]
                path.write_text(canonical_json(report) + "\n")


def digests(kinds) -> dict:
    """{path under OUT: sha256} of the files :func:`write_runs` writes for ``kinds``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_runs(root, kinds)
        return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}


def platform() -> dict:
    """numpy's version, its OpenBLAS version and the OpenBLAS core picked
    at run time; the core is None where numpy ships no scipy-openblas."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so"), None)
    core = None
    if lib is not None:
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return {"numpy": np.__version__, "openblas": f"{blas['name']} {blas['version']}", "openblas_core": core}


def write_digest(path: Path, command: str, kinds=tuple(SUITES)) -> None:
    record = {"command": command, "platform": platform(), "files": digests(kinds)}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def check_digest(path: Path) -> int:
    try:
        record = json.loads(path.read_text())
        files, recorded = record["files"], dict(record["platform"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read digest {path}: {exc!r}", file=sys.stderr)
        return 2
    here = platform()
    if here != recorded:
        fields = "; ".join(f"{key}: {here.get(key)!r} here, {recorded.get(key)!r} in {path}"
                           for key in sorted(here.keys() | recorded.keys()) if here.get(key) != recorded.get(key))
        print(f"platform differs, no verdict: {fields}", file=sys.stderr)
        return 2
    try:
        got = digests(sorted({name.split("/")[0] for name in files}))
    except RunFailed as exc:
        print(f"a suite raised, no verdict: {exc}", file=sys.stderr)
        return 3
    moved = []
    for name in sorted(set(files) | set(got)):
        if name not in got:
            moved.append(f"missing: {name}")
        elif name not in files:
            moved.append(f"new: {name}")
        elif got[name] != files[name]:
            moved.append(f"differs: {name}")
    print("\n".join(moved) if moved else f"all {len(files)} files match {path}")
    return 1 if moved else 0


def main(argv) -> int:
    if len(argv) == 1 and not argv[0].startswith("--"):
        root = Path(argv[0])
        write_runs(root)
        print(f"wrote {sum(1 for p in root.rglob('*') if p.is_file())} files under {root}")
        return 0
    if len(argv) == 2 and argv[0] == "--write":
        write_digest(Path(argv[1]), " ".join(["python3", "tools/identity.py", *argv]))
        return 0
    if len(argv) == 2 and argv[0] == "--check":
        return check_digest(Path(argv[1]))
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
