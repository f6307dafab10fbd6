"""Reference fingerprints of every operation's output, and a comparison
against them. Run from the repository root:

    python3 bench/fingerprints.py write     # rewrite bench/fingerprints.json
    python3 bench/fingerprints.py compare   # list the operations whose output changed

Both run one untimed round of each workload at the reference seed. A
difference is reported, not counted as a failure: a change that claims
to keep results bit-identical shows it here. numpy promises no stream
compatibility across versions (NEP 19), so fingerprints written under
another numpy version may differ without a program change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run

REFERENCE = Path(__file__).resolve().parent / "fingerprints.json"
SEED = 1


def collect(seed: int) -> dict:
    import workloads

    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    out = {}
    for name in run.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            tally = run.Tally()
            run.run_round(workloads.build(name, seed, Path(tmp)), tally)
            out[name] = dict(tally.reference)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="write or compare the reference output fingerprints")
    p.add_argument("command", choices=("write", "compare"))
    args = p.parse_args(argv)
    if not run.prepare():
        print("fingerprints: no bvm source tree under src/", file=sys.stderr)
        return 2
    import numpy

    current = collect(SEED)
    if args.command == "write":
        doc = {"seed": SEED, "numpy": numpy.__version__, "fingerprints": current}
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(map(len, current.values()))} fingerprints to {REFERENCE.relative_to(run.ROOT)}")
        return 0
    ref = json.loads(REFERENCE.read_text())
    if ref["numpy"] != numpy.__version__:
        print(f"note: reference written under numpy {ref['numpy']}, running numpy {numpy.__version__}")
    total = differ = 0
    for workload, ops in ref["fingerprints"].items():
        for op, fp in ops.items():
            total += 1
            now = current.get(workload, {}).get(op)
            if now != fp:
                differ += 1
                print(f"differs {workload} {op}: {fp} -> {now}")
    print(f"{differ} of {total} fingerprints differ from {REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
