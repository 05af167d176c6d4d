"""Span recording around the public functions of each conjspaces layer.

Only a traced run installs the wrappers.  They replace module attributes
(in every conjspaces module that imported the function by name) and class
methods, so internal calls such as elem_mul -> mul_mono, which go through
module globals, are seen too.  Spans (name, start, end, parent) stay in
memory in flat arrays; per-layer numbers are derived from them once the
ops are done, and the child writes those out with its result.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from time import perf_counter

from workloads import ENUMERATION_GUARD

# (module, attribute path) of every wrapped callable, by layer
TARGETS = (
    ("gf2", "GF2Echelon.insert"), ("gf2", "GF2Echelon.reduce"),
    ("gf2", "Poly.__mul__"),
    ("coefficients", "coeff_mul"), ("coefficients", "parse_coeff"),
    ("coefficients", "chart_lookup"), ("coefficients", "shadow_projection"),
    ("steenrod", "UnstableAlgebra.reduce"), ("steenrod", "UnstableAlgebra.sq"),
    ("steenrod", "UnstableAlgebra.basis"), ("steenrod", "steinberg"),
    ("steenrod", "bpoly_mul"), ("steenrod", "compute_R"),
    ("dual_steenrod", "mul_mono"), ("dual_steenrod", "elem_mul"),
    ("dual_steenrod", "tensor_mul"), ("dual_steenrod", "coproduct"),
    ("dual_steenrod", "normal_form"),
    ("frames", "purity_check"), ("frames", "build_frame"),
    ("frames", "verify_conjugation_equation"),
    ("frames", "verify_steenrod_compat"),
    ("frames", "verify_frame_multiplicative"),
    ("frames", "nakayama_splitting_check"), ("frames", "borel_vs_R"),
    ("frames", "kappa_shadow_check"), ("frames", "unique_section_check"),
    ("frames", "builtin_models"),
    ("selftest", "run_check"), ("selftest", "run_selftest"),
)

FRAME_SPANS = {
    "purity": "purity_check", "build_frame": "build_frame",
    "conjugation_equation": "verify_conjugation_equation",
    "steenrod_compat": "verify_steenrod_compat",
    "multiplicative": "verify_frame_multiplicative",
    "nakayama": "nakayama_splitting_check", "borel_vs_R": "borel_vs_R",
    "kappa_shadow": "kappa_shadow_check",
    "unique_section": "unique_section_check",
}
SELFTEST_CHECKS = ("psi", "pairing", "coefficient-action", "tau-confluence",
                   "frames")
CLI_SUBCOMMANDS = ("frame", "asteen", "coeff", "chart", "purity", "steinberg",
                   "examples", "selftest")


COUNT_METRICS = {
    "gf2.echelon.insert_calls", "gf2.poly_mul.calls", "steenrod.reduce.calls",
    "steenrod.sq.calls", "steenrod.basis_max_dim", "dual_steenrod.mul_mono.calls",
    "dual_steenrod.mul_mono.cache_entries", "dual_steenrod.terms_out",
    "frames.unique_section.candidates"}
SHARE_METRICS = {"dual_steenrod.mul_mono.hit_ratio",
                 "frames.unique_section.decided_share"}


def unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    if name in SHARE_METRICS:
        return "share"
    return "ms" if name.endswith("_ms") else "s"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = [-1]
        self.basis_max_dim = 0
        self.terms_out = 0
        self.candidates = 0
        self.unique_calls = 0
        self.unique_decided = 0
        self.originals: dict = {}
        self.mul_mono = None  # the lru_cache object behind the wrapper

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"conjspaces.{name}")
                for name in ("gf2", "coefficients", "steenrod", "dual_steenrod",
                             "frames", "selftest", "cli")}
        for modname, path in TARGETS:
            owner = mods[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            self.originals[f"{modname}.{path}"] = original
            wrapper = self._wrap(f"{modname}.{path}", original)
            if cls:
                setattr(owner, attr, wrapper)
                continue
            for mod in (*mods.values(), importlib.import_module("conjspaces")):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
        self.mul_mono = self.originals["dual_steenrod.mul_mono"]

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name, f):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        observe = {"steenrod.UnstableAlgebra.basis": self._on_basis,
                   "dual_steenrod.elem_mul": self._on_elem_mul,
                   "frames.unique_section_check": self._on_unique}.get(name)
        if name == "selftest.run_check":
            ids = {}

            def nid(args):
                check = args[0]
                if check not in ids:
                    ids[check] = self._id(f"selftest.check:{check}")
                return ids[check]
        else:
            fixed = self._id(name)

            def nid(args):
                return fixed

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid(args))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = f(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- counters read from call results ----------------------------------

    def _on_basis(self, args, kwargs, result) -> None:
        if len(result) > self.basis_max_dim:
            self.basis_max_dim = len(result)

    def _on_elem_mul(self, args, kwargs, result) -> None:
        self.terms_out += len(result)

    def _on_unique(self, args, kwargs, result) -> None:
        """Sum of 2^N over the basis classes the enumeration visits, N the
        Steinberg generator count of the class's degree.  The check has
        already built these bases, and the unwrapped basis() adds no spans."""
        model = args[0]
        bound = args[1] if len(args) > 1 else kwargs.get("bound")
        guard = (args[2] if len(args) > 2
                 else kwargs.get("max_generators", ENUMERATION_GUARD))
        top = model.bound if bound is None else bound
        basis = self.originals["steenrod.UnstableAlgebra.basis"]
        self.unique_calls += 1
        for d in range(0, top + 1, 2):
            classes = len(basis(model.even, d))
            if not classes:
                continue
            gens = sum(len(basis(model.fixed, m)) for m in range(d // 2 + 1))
            if gens > guard:
                return
            self.candidates += classes << gens
        self.unique_decided += 1

    # -- derived numbers --------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            total[k] += dur[i]
            self_s[k] += dur[i] - child[i]
        spans = {name: {"calls": calls[k], "s": total[k], "self_s": self_s[k]}
                 for k, name in enumerate(self.names)}
        info = self.mul_mono.cache_info()
        return {"spans": spans, "basis_max_dim": self.basis_max_dim,
                "terms_out": self.terms_out, "candidates": self.candidates,
                "unique_calls": self.unique_calls,
                "unique_decided": self.unique_decided,
                "mul_mono_hits": info.hits, "mul_mono_misses": info.misses,
                "mul_mono_entries": info.currsize}


def layer_metrics(summaries: list[dict], cli: dict | None = None) -> dict:
    """The per-layer metrics of BENCHMARK.json from one or more summaries.

    `cli` carries the cli-mix numbers measured outside the package: the
    import times of traced processes and the untraced wall times per
    subcommand.  Layers a workload never enters read 0.
    """
    spans: dict[str, dict] = {}
    for s in summaries:
        for name, v in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += v[k]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def total(key):
        return sum(s[key] for s in summaries)

    hits, misses = total("mul_mono_hits"), total("mul_mono_misses")
    unique_calls = total("unique_calls")
    m = {
        "gf2.echelon.insert_calls": get("gf2.GF2Echelon.insert", "calls"),
        "gf2.echelon.self_s": (get("gf2.GF2Echelon.insert", "self_s")
                               + get("gf2.GF2Echelon.reduce", "self_s")),
        "gf2.poly_mul.calls": get("gf2.Poly.__mul__", "calls"),
        "coefficients.self_s": sum(
            get(f"coefficients.{f}", "self_s") for f in
            ("coeff_mul", "parse_coeff", "chart_lookup", "shadow_projection")),
        "steenrod.reduce.calls": get("steenrod.UnstableAlgebra.reduce", "calls"),
        "steenrod.reduce.self_s": get("steenrod.UnstableAlgebra.reduce", "self_s"),
        "steenrod.sq.calls": get("steenrod.UnstableAlgebra.sq", "calls"),
        "steenrod.sq.self_s": get("steenrod.UnstableAlgebra.sq", "self_s"),
        "steenrod.steinberg.self_s": get("steenrod.steinberg", "self_s"),
        "steenrod.bpoly_mul.self_s": get("steenrod.bpoly_mul", "self_s"),
        "steenrod.compute_R.self_s": get("steenrod.compute_R", "self_s"),
        "steenrod.basis_max_dim": max((s["basis_max_dim"] for s in summaries),
                                      default=0),
        "dual_steenrod.mul_mono.calls": get("dual_steenrod.mul_mono", "calls"),
        "dual_steenrod.mul_mono.self_s": get("dual_steenrod.mul_mono", "self_s"),
        "dual_steenrod.mul_mono.hit_ratio": hits / max(1, hits + misses),
        "dual_steenrod.mul_mono.cache_entries": max(
            (s.get("entries_after_grid", s["mul_mono_entries"])
             for s in summaries), default=0),
    }
    for func in ("elem_mul", "tensor_mul", "coproduct", "normal_form"):
        m[f"dual_steenrod.{func}.self_s"] = get(f"dual_steenrod.{func}", "self_s")
    m["dual_steenrod.terms_out"] = total("terms_out")
    for metric, func in FRAME_SPANS.items():
        m[f"frames.{metric}.s"] = get(f"frames.{func}", "s")
    m["frames.unique_section.candidates"] = total("candidates")
    m["frames.unique_section.decided_share"] = (
        total("unique_decided") / unique_calls if unique_calls else 0.0)
    m["frames.builtin_models.s"] = get("frames.builtin_models", "s")
    for check in SELFTEST_CHECKS:
        m[f"selftest.check_s.{check}"] = get(f"selftest.check:{check}", "s")
    m["selftest.total_s"] = get("selftest.run_selftest", "s")
    cli = cli or {}
    imports = cli.get("import_s", [])
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for sub in CLI_SUBCOMMANDS:
        walls = cli.get("wall_s", {}).get(sub, [])
        m[f"cli.{sub}.p50_ms"] = 1000 * statistics.median(walls) if walls else 0.0
    return m
