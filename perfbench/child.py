"""One round of a workload, in a fresh interpreter so every cache starts empty.

    python3 perfbench/child.py < job.json
        job: {"workload", "ops", "digests", "trace", "setup_only"}; prints one
        JSON result line.  Set-up (import plus building the inputs) is timed
        separately from the ops; each op is timed alone and then checked
        against its known answer and its pinned output digest.  Between
        ops the calibration loop runs, and each op is reported with the
        loop's time around it (see calibrate).
    python3 perfbench/child.py cli ARGS...
        `python -m conjspaces ARGS` with the tracer installed after import;
        the trace summary goes to stderr as the last line, after MARK.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

OP_TIMEOUT_S = 60
MARK = "PERFBENCH-TRACE "
CAL_EVERY_S = 0.05          # the calibration loop runs at most this often
CAL_ITERATIONS = 5000       # about 1 ms on a 2.1 GHz Xeon, Python 3.11


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop (tuple keys, dict updates), best
    of three.  It never touches conjspaces, so the package cannot change
    it; the machine can: on a shared host the same loop takes 1.5 times
    as long in some minutes as in others.  Op times divided by the loop's
    time nearby are free of that drift."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc: dict = {}
        for i in range(CAL_ITERATIONS):
            key = (i & 31, i % 7)
            acc[key] = acc.get(key, 0) ^ i
        best = min(best, perf_counter() - start)
    return best


class Calibration:
    """Calibration loop times taken between ops.  An op is reported with the
    mean of the last loop before it and the first loop after it."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def maybe(self) -> int:
        """Run the loop unless it ran in the last CAL_EVERY_S; returns the
        index of the loop an op starting now follows."""
        if not self.at or perf_counter() - self.at[-1] >= CAL_EVERY_S:
            self.seconds.append(calibrate())
            self.at.append(perf_counter())
        return len(self.seconds) - 1

    def around(self, indices: list[int]) -> list[float]:
        """Per op, the mean loop time around it; runs a closing loop."""
        self.seconds.append(calibrate())
        return [(self.seconds[i] + self.seconds[i + 1]) / 2 for i in indices]


# ---------------------------------------------------------------------------
# dual-products


def _mono(m) -> tuple:
    a, u, xi, tau = m
    return (a, u, tuple(tuple(t) for t in xi), tuple(tau))


def _squarefree(elem) -> bool:
    return all(len(set(m[3])) == len(m[3]) for m in elem)


def _dims(elem) -> set:
    return {wl.mono_dimension(m) for m in elem}


class DualRunner:
    def __init__(self, ops):
        from conjspaces import dual_steenrod
        self.ds = dual_steenrod
        self.inputs = {}
        for op in ops:
            if op["kind"] == "coprod":
                self.inputs[op["key"]] = frozenset({_mono(op["mono"])})
            elif op["kind"] == "word":
                self.inputs[op["key"]] = [_mono(m) for m in op["word"]]
            elif op["kind"] == "psi":
                self.inputs[op["key"]] = {n: e for n, e in op["z"]}

    def run(self, op):
        ds, kind = self.ds, op["kind"]
        if kind == "grid":
            j, k = op["j"], op["k"]
            return ds.elem_mul(ds.psi({1: j}), ds.psi({1: k})), ds.psi({1: j + k})
        if kind == "psi":
            z = self.inputs[op["key"]]
            alt = ds.ELEM_ONE  # the other route: one factor at a time, z3 first
            for n in sorted(z, reverse=True):
                for _ in range(z[n]):
                    alt = ds.elem_mul(alt, ds.psi_zeta(n))
            return ds.psi(z), alt
        if kind in ("coprod", "coprod-psi-zeta"):
            e = (self.inputs[op["key"]] if kind == "coprod"
                 else ds.psi_zeta(op["n"]))
            T = ds.coproduct(e)
            coassoc = (ds.coproduct_left(T) == ds.coproduct_right(T)
                       if op.get("coassoc", True) else True)
            return (e, T, ds.tensor_counit_left(T), ds.tensor_counit_right(T),
                    coassoc)
        if kind == "word":
            word = self.inputs[op["key"]]
            return (word, ds.normal_form(word),
                    ds.normal_form(word, rng=random.Random(op["rng_seed"])))
        raise ValueError(kind)

    def check(self, op, value):
        """(reason or None, canonical output text)."""
        ds, kind = self.ds, op["kind"]
        if kind == "grid":
            lhs, rhs = value
            dim = op["j"] + op["k"]
            if lhs != rhs:
                return "psi(z1^j) psi(z1^k) != psi(z1^(j+k))", None
            if _dims(rhs) - {dim} or not _squarefree(rhs):
                return "psi(z1^n) not square-free of dimension n", None
            return None, ds.format_element(rhs)
        if kind == "psi":
            e, alt = value
            dim = sum(e_n * ((1 << n) - 1) for n, e_n in op["z"])
            if e != alt:
                return "psi is not multiplicative", None
            if _dims(e) - {dim} or not _squarefree(e):
                return "psi(z) not square-free of the dimension of z", None
            return None, ds.format_element(e)
        if kind in ("coprod", "coprod-psi-zeta"):
            e, T, left, right, coassoc = value
            dims = _dims(e)
            if left != e or right != e:
                return "counit law fails", None
            if not coassoc:
                return "coassociativity fails", None
            if {wl.mono_dimension(l) + wl.mono_dimension(r) for l, r in T} - dims:
                return "coproduct changes the dimension", None
            return None, ds.format_tensor(T)
        if kind == "word":
            word, canonical, shuffled = value
            if canonical != shuffled:
                return "normal form depends on the rewrite order", None
            dim = sum(wl.mono_dimension(m) for m in word)
            if not _squarefree(canonical) or _dims(canonical) - {dim}:
                return "normal form not square-free of the word's dimension", None
            return None, ds.format_element(canonical)
        raise ValueError(kind)


# ---------------------------------------------------------------------------
# frame-grassmannian


def grassmannian_model(n: int, swap: bool = False):
    """Gr_2(C^n) over Gr_2(R^n), from the public API alone.

    H(Gr_2(C^n)) = F[c1, c2]/(cbar_{n-1}, cbar_n) with |c_i| = 2i, where
    cbar = 1/(1 + c1 + c2) gives cbar_k = c1 cbar_{k-1} + c2 cbar_{k-2};
    the fixed side is the same with w1, w2 of degrees 1, 2.  The Wu formula
    gives Sq^2 c2 = c1 c2 and Sq^1 w2 = w1 w2; the top squares are the
    squares, and kappa0 sends c1^i c2^j to w1^i w2^j.  With swap, kappa0
    exchanges the images of c1^2 and c2 (a negative control).
    """
    from conjspaces import Poly, SpaceModel, UnstableAlgebra, parse_poly
    top = 4 * (n - 2)

    def algebra(g1, g2, unit, label):
        gens = [g1, g2]
        one = parse_poly("1", gens)
        x, y = parse_poly(g1, gens), parse_poly(g2, gens)
        dual = [one, x]
        while len(dual) <= n:
            dual.append(x * dual[-1] + y * dual[-2])
        sq = {g2: {unit: parse_poly(f"{g1}*{g2}", gens)}}
        return UnstableAlgebra(((g1, unit), (g2, 2 * unit)),
                               (dual[n - 1], dual[n]), sq, 2 * top, label)

    even = algebra("c1", "c2", 2, f"Gr_2(C^{n}) even")
    fixed = algebra("w1", "w2", 1, f"Gr_2(R^{n}) fixed")
    rename = {"c1": "w1", "c2": "w2"}
    kappa0 = {}
    for d in range(0, top + 1, 2):
        for m in even.basis(d):
            kappa0[m] = Poly(frozenset({tuple((rename[g], e) for g, e in m)}))
    if swap:
        c1sq, c2 = (("c1", 2),), (("c2", 1),)
        kappa0[c1sq], kappa0[c2] = kappa0[c2], kappa0[c1sq]
    name = f"Gr_2(C^{n})" + ("-swap" if swap else "")
    return SpaceModel(name, even, fixed, kappa0, top)


def check_grassmannian_series(n: int) -> None:
    """Both Poincare series must be the Gaussian binomial [n choose 2], in
    t^2 on the even side and in t on the fixed side."""
    model = grassmannian_model(n)
    gauss = wl.gaussian_binomial_2(n)
    for d in range(model.bound + 1):
        want_fixed = gauss[d] if d < len(gauss) else 0
        want_even = gauss[d // 2] if d % 2 == 0 and d // 2 < len(gauss) else 0
        if model.fixed.dim(d) != want_fixed or model.even.dim(d) != want_even:
            raise RuntimeError(f"Gr_2(C^{n}) series differs in degree {d}")


def build_model(spec: dict):
    from conjspaces import (SpaceModel, cp_model, cp_product_model,
                            truncated_algebra)
    fam = spec["family"]
    if fam == "gr2":
        return grassmannian_model(spec["n"])
    if fam == "gr2-swap":
        return grassmannian_model(spec["n"], swap=True)
    if fam == "cp":
        return cp_model(spec["n"])
    if fam == "cpx":
        return cp_product_model(spec["a"], spec["b"])
    if fam == "cp-short":
        n = spec["n"]
        model = cp_model(n)
        fixed = truncated_algebra((("t", 1),), {"t": n}, model.fixed.bound,
                                  f"RP^{n - 1} fixed")
        return SpaceModel(wl.model_name(spec), model.even, fixed, model.kappa0,
                          model.bound)
    raise ValueError(fam)


def _verdict_line(v) -> str:
    return f"{'PASS' if v.ok else 'FAIL'} {v.name}: {v.detail}"


class FrameRunner:
    def __init__(self, ops):
        from conjspaces import frames
        self.frames = frames
        for n in sorted({op["model"]["n"] for op in ops
                         if op["model"]["family"] in ("gr2", "gr2-swap")}):
            check_grassmannian_series(n)
        # a fresh model per op, so no op inherits another's basis tables
        self.models = {op["key"]: build_model(op["model"]) for op in ops}

    def run(self, op):
        model = self.models.pop(op["key"])
        if op["kind"] == "frame":
            ok, verdicts, report = self.frames.frame_check(model)
            shadow = (self.frames.kappa_shadow_check(model, report)
                      if report is not None else None)
            return ok, verdicts + [shadow] * (shadow is not None)
        return self.frames.unique_section_check(model)

    def check(self, op, value):
        if op["kind"] == "frame":
            ok, verdicts = value
            got = {v.name: v.ok for v in verdicts}
            if got != op["expect"] or ok != all(op["expect"].values()):
                wrong = sorted(k for k in set(got) | set(op["expect"])
                               if got.get(k) != op["expect"].get(k))
                return f"verdicts differ from the known answer: {wrong}", None
            return None, "\n".join(_verdict_line(v) for v in verdicts)
        if value.ok != op["expect"]:
            return f"unique-section {value.ok}: {value.detail}", None
        return None, _verdict_line(value)


class CliProbe:
    """cli-mix set-up: what a CLI process imports before it parses argv."""

    def __init__(self, ops):
        import conjspaces.cli  # noqa: F401


RUNNERS = {"dual-products": DualRunner, "frame-grassmannian": FrameRunner,
           "cli-mix": CliProbe}


def run_job(job: dict) -> dict:
    t0 = perf_counter()
    import conjspaces
    runner = RUNNERS[job["workload"]](job["ops"])
    result = {"conjspaces": conjspaces.__file__,
              "setup_s": perf_counter() - t0, "ops": [], "trace": None}
    if job.get("setup_only"):
        return result
    tracer = Tracer() if job.get("trace") else None
    if tracer:
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    cal, cal_before = Calibration(), []
    for op in job["ops"]:
        cal_before.append(cal.maybe())
        reason = None
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = perf_counter()
        try:
            value = runner.run(op)
        except OpTimeout:
            reason = f"timed out after {OP_TIMEOUT_S} s"
        except Exception as exc:  # an op that raises is a failed op
            reason = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start
        out = None
        if reason is None:
            try:
                reason, out = runner.check(op, value)
            except Exception as exc:  # unreadable output fails the op
                reason = f"check raised {type(exc).__name__}: {exc}"
        got = None if out is None else digest(out)
        pinned = job["digests"].get(op["key"])
        if reason is None and pinned is not None and got != pinned:
            reason = f"output digest {got} != pinned {pinned}"
        result["ops"].append([op["key"], seconds, reason, got])
        if op["kind"] == "grid":   # the grid runs first, in a fixed order
            cache = tracer.mul_mono if tracer else conjspaces.dual_steenrod.mul_mono
            result["entries_after_grid"] = cache.cache_info().currsize
    for sample, loop_s in zip(result["ops"], cal.around(cal_before)):
        sample.append(loop_s)
    if tracer:
        result["trace"] = tracer.summary()
        if "entries_after_grid" in result:
            result["trace"]["entries_after_grid"] = result["entries_after_grid"]
    return result


def traced_cli(args: list[str]) -> int:
    t0 = perf_counter()
    import conjspaces.cli as cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    sys.stdout.flush()
    print(MARK + json.dumps({"import_s": import_s, "trace": tracer.summary()}),
          file=sys.stderr)
    return code


def main() -> int:
    if sys.argv[1:2] == ["cli"]:
        return traced_cli(sys.argv[2:])
    print(json.dumps(run_job(json.load(sys.stdin))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
