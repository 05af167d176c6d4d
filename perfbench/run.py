"""Benchmark runner for conjspaces: one closed-loop client, one child at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
The seed makes a round of ops (see workloads.py); the run repeats that
round, each time in a fresh interpreter so the module-level caches start
empty as they do for a user's CLI call, until S seconds are used (at
least MIN_ROUNDS rounds).

Op times are reported in ref_ms: multiples of the time a fixed
pure-Python calibration loop takes next to the op (child.calibrate, about
1 ms on a 2.1 GHz Xeon).  On a shared host the machine's speed drifts by
half over minutes; the ratio does not, and the package cannot change the
loop.  The raw figures are printed as comment lines.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of one traced round plus the tracing overhead (traced minus untraced wall
time of the same round).  The last stdout line is the JSON result; the
lines before it repeat every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from child import MARK, Calibration, digest  # noqa: E402
from tracer import layer_metrics, unit  # noqa: E402

ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5            # extra set-up-only children per run
MIN_ROUNDS = 3
RUN_DEADLINE_S = 170        # every child is stopped by then
CLI_TIMEOUT_S = 60

E2E_UNITS = {"setup_s": "s", "throughput_ops_ref_s": "1/ref_s",
             "latency_p50_ref_ms": "ref_ms", "latency_tail_ref_ms": "ref_ms",
             "pass_share": "share", "peak_rss_mb": "MB"}


class Run:
    """Children and op samples of one benchmark invocation."""

    def __init__(self, workload: str, ops: list[dict], pinned: dict,
                 deadline: float):
        self.workload = workload
        self.ops = ops
        self.pinned = pinned
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")
        # children cache bytecode, as an installed package does, whatever
        # the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.setup_s: list[float] = []
        # (key, seconds, reason or None, output digest or None,
        #  calibration loop seconds around the op)
        self.samples: list[tuple[str, float, str | None, str | None, float]] = []
        self.round_walls: list[float] = []
        self.broken: list[str] = []     # child failures that void the run

    def _spawn(self, argv, stdin: str | None = None, cap: float = RUN_DEADLINE_S):
        timeout = max(1.0, min(cap, self.deadline - perf_counter()))
        start = perf_counter()
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True,
                                  text=True, cwd=ROOT, env=self.env,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, perf_counter() - start
        return proc, perf_counter() - start

    def child(self, job: dict) -> dict | None:
        proc, _ = self._spawn([sys.executable, os.path.join(HERE, "child.py")],
                              json.dumps(job))
        if proc is None or proc.returncode != 0:
            why = "timed out" if proc is None else proc.stderr.strip()[-400:]
            self.broken.append(f"child failed: {why}")
            return None
        res = json.loads(proc.stdout.splitlines()[-1])
        where = os.path.dirname(os.path.dirname(res["conjspaces"]))
        if os.path.realpath(where) != os.path.realpath(os.path.join(ROOT, "src")):
            self.broken.append(f"imported conjspaces from {where}")
            return None
        self.setup_s.append(res["setup_s"])
        return res

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            self.child({"workload": self.workload, "ops": self.ops,
                        "setup_only": True})

    def in_process_round(self, trace: bool) -> dict | None:
        """One child runs the whole round; a lost child fails every op."""
        digests = {op["key"]: self.pinned.get(op["key"]) for op in self.ops}
        job = {"workload": self.workload, "ops": self.ops, "trace": trace,
               "digests": digests}
        res = self.child(job)
        if res is None:
            self.samples += [(op["key"], 0.0, "child lost", None, 1.0)
                             for op in self.ops]
            self.round_walls.append(0.0)
            return None
        self.samples += [tuple(sample) for sample in res["ops"]]
        self.round_walls.append(sum(sample[1] for sample in res["ops"]))
        return res

    def cli_round(self, trace: bool, cli: dict) -> list[dict]:
        """Every op is a whole process; returns the trace summaries."""
        traces, wall, samples = [], 0.0, []
        cal, cal_before = Calibration(), []
        for op in self.ops:
            cal_before.append(cal.maybe())
            if trace:
                argv = [sys.executable, os.path.join(HERE, "child.py"), "cli"]
            else:
                argv = [sys.executable, "-m", "conjspaces"]
            proc, seconds = self._spawn(argv + op["argv"], cap=CLI_TIMEOUT_S)
            wall += seconds
            if proc is None:
                samples.append((op["key"], seconds, "timed out", None))
                continue
            err = proc.stderr
            if trace:
                head, _, tail = err.rpartition(MARK)
                if not tail:
                    self.broken.append(f"no trace from {op['key']}")
                    samples.append((op["key"], seconds, "no trace", None))
                    continue
                err = head
                data = json.loads(tail)
                traces.append(data["trace"])
                cli["import_s"].append(data["import_s"])
            else:
                cli["wall_s"].setdefault(op["argv"][0], []).append(seconds)
            reason = wl.check_cli_output(op, proc.returncode, proc.stdout, err)
            got, pinned = digest(proc.stdout), self.pinned.get(op["key"])
            if reason is None and pinned is not None and got != pinned:
                reason = f"stdout digest {got} != pinned {pinned}"
            samples.append((op["key"], seconds, reason, got))
        self.samples += [sample + (loop_s,) for sample, loop_s
                         in zip(samples, cal.around(cal_before))]
        self.round_walls.append(wall)
        return traces

    def play(self, trace: bool, cli: dict | None = None) -> list[dict]:
        if self.workload == "cli-mix":
            return self.cli_round(trace, cli)
        res = self.in_process_round(trace)
        return [res["trace"]] if res and trace else []

    def unexpected(self) -> list[str]:
        by_key = {op["key"]: op for op in self.ops}
        return [f"{k}: {r}" for k, _, r, _, _ in self.samples
                if r is not None and not wl.known_defect(by_key[k])]


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile that still has ten
    samples above it (the maximum when there are fewer than eleven)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """Each op's time is divided by the calibration loop's time around it
    and read at its median over the run's rounds; percentiles and
    throughput are then taken over the ops of one round."""
    n = len(run.ops)
    rounds = len(run.samples) // n
    by_op = [run.samples[i::n] for i in range(n)]
    ref = [statistics.median(s[1] / s[4] for s in op) for op in by_op]
    raw = [statistics.median(s[1] for s in op) for op in by_op]
    passed = sum(1 for s in run.samples if s[2] is None)
    tail_v, tail_p = tail(ref)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    m = {"setup_s": statistics.median(run.setup_s),
         "throughput_ops_ref_s": 1000 * passed / rounds / sum(ref),
         "latency_p50_ref_ms": statistics.median(ref),
         "latency_tail_ref_ms": tail_v,
         "pass_share": passed / len(run.samples),
         "peak_rss_mb": peak_kb / 1024}
    loop_ms = 1000 * statistics.median(s[4] for s in run.samples)
    notes = [f"latency_tail_ref_ms is p{tail_p:.1f} of {n} ops, each at its "
             f"median of {rounds} rounds; latency_p50_ref_ms over the same {n}",
             f"1 ref_ms is one calibration loop: median {loop_ms:.4f} ms here",
             f"raw: throughput_ops_s {passed / rounds / sum(raw):.6g} 1/s, "
             f"latency_p50_ms {1000 * statistics.median(raw):.6g} ms, "
             f"latency_tail_ms {1000 * tail(raw)[0]:.6g} ms",
             f"setup_s is the median of {len(run.setup_s)} set-ups"]
    return m, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "conjspaces", "__init__.py")):
        print(f"error: no conjspaces sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)["digests"][args.workload]
    run = Run(args.workload, wl.make_round(args.workload, args.seed), pinned,
              started + RUN_DEADLINE_S)

    if args.trace:
        # one untraced and one traced round of the same ops
        cli = {"import_s": [], "wall_s": {}}
        run.play(False, cli)
        traces = run.play(True, cli)
        plain, traced = run.round_walls
        metrics = layer_metrics(traces, cli)
        metrics["trace.overhead_s"] = traced - plain
        units = {name: unit(name) for name in metrics}
        notes = [f"trace.overhead_s: traced {traced:.3f} s - untraced "
                 f"{plain:.3f} s per round"]
    else:
        run.probe_setup()
        round_s = 0.0      # the longest round so far
        while (len(run.round_walls) < MIN_ROUNDS
               or perf_counter() - started + round_s <= args.seconds):
            round_start = perf_counter()
            run.play(False, {"import_s": [], "wall_s": {}})
            round_s = max(round_s, perf_counter() - round_start)
        metrics, notes = end_to_end(run)
        units = E2E_UNITS

    failures = [s[2] for s in run.samples if s[2] is not None]
    unexpected = run.unexpected()
    correct = not run.broken and not unexpected and bool(run.samples)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for note in notes:
        print(f"# {note}")
    print(f"# {len(failures)} of {len(run.samples)} ops failed, "
          f"{len(failures) - len(unexpected)} of them known defects")
    for line in (run.broken + unexpected)[:10]:
        print(f"# UNEXPECTED {line}")
    print(json.dumps({"correct": correct, "attempted": len(run.samples),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
