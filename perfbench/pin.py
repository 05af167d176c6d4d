"""Pin the output digest of every op that any seed can draw.

    python3 perfbench/pin.py

Runs each workload's whole pool once, from the root of the checkout this
file sits in, and rewrites the "digests" of perfbench/reference.json.  An
op that misses its known answer is pinned as null, so a later fix of that
defect does not read as an output change.  Re-pin only when the canonical
outputs are meant to change, and say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from run import HERE, Run
import workloads as wl

PATH = os.path.join(HERE, "reference.json")


def pin(workload: str) -> dict:
    run = Run(workload, wl.pool(workload), {}, float("inf"))
    run.play(False, {"import_s": [], "wall_s": {}})
    if run.broken:
        raise SystemExit(f"{workload}: {run.broken[0]}")
    for key, _, reason, _, _ in run.samples:
        if reason is not None:
            print(f"{workload}: {key}: {reason}", file=sys.stderr)
    return {key: (got if reason is None else None)
            for key, _, reason, got, _ in run.samples}


def main() -> int:
    with open(PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["digests"] = {w: pin(w) for w in wl.WORKLOADS}
    ref["workload_digests"] = {
        w: hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]
        for w, d in ref["digests"].items()}
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
