#!/usr/bin/env python3
"""Run every frame check on the built-in conjugation-space models.

For each model: the six frame verdicts, then the uniqueness of the
section, with the wall time.  With --bound, every verdict reads the
classes through that degree, past a model's own bound too.  Exit status
1 if any model fails, 2 if the bound passes the bound of a model's
algebras, as for `conjspaces frame check --bound`.
"""

import argparse
import sys
import time

from conjspaces import frames as fr
from conjspaces.errors import DegreeOverflowError


def survey(models, bound=None):
    failures = 0
    for model in models:
        t0 = time.perf_counter()
        ok, verdicts, report = fr.frame_check(model, bound)
        if report is not None:
            verdicts = verdicts + [fr.unique_section_check(model, bound)]
            ok = all(v.ok for v in verdicts)
        elapsed = time.perf_counter() - t0
        status = "ok " if ok else "FAIL"
        print(f"{status} {model.name:<12} {elapsed * 1000:7.1f} ms")
        for v in verdicts:
            mark = "+" if v.ok else "-"
            detail = f"  {v.detail}" if (v.detail and not v.ok) else ""
            print(f"      {mark} {v.name}{detail}")
        if not ok:
            failures += 1
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bound", type=int, default=None,
                    help="override each model's degree bound")
    ap.add_argument("--only", help="restrict to models whose name contains this")
    args = ap.parse_args(argv)
    models = fr.builtin_models()
    if args.only:
        models = [m for m in models if args.only in m.name]
        if not models:
            ap.error(f"no built-in model matches {args.only!r}")
    if args.bound is not None and args.bound < 0:
        ap.error("--bound must be non-negative")
    try:
        failures = survey(models, args.bound)
    except DegreeOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = len(models)
    print(f"{total - failures} of {total} models pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
