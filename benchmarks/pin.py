"""Rewrite golden.json: the digests of each workload's decision-relevant
outputs at the pinned seed.

Run from the root of a dagcredit checkout, only when a change to the
program's output is deliberate:

    python3 benchmarks/pin.py
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import package_modules


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    modules = package_modules()
    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        run_dir = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
        try:
            out_dir = run_dir / "out"
            out_dir.mkdir()
            inp = workload.make_input(workloads.GOLDEN_SEED, run_dir)
            outputs = workload.read_outputs(workload.prepare(modules, inp, out_dir)(), out_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if outputs.problems:
            print(f"{name}: {outputs.problems}", file=sys.stderr)
            return 1
        golden[name] = {k: workloads.digest(v) for k, v in outputs.sections.items()}
        print(f"{name}: pinned {', '.join(golden[name])}")
    workloads.GOLDEN_FILE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
