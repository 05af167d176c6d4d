"""Command-line front end.

Exit codes: 0 success, 1 a mathematical check failed, 2 bad input
(parse errors, malformed models, missing files, bad arguments), 141 the
reader closed stdout early.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import DegreeOverflowError, ModelError, ParseError


def _resolve_model(ref: str) -> fr.SpaceModel:
    from . import frames as fr
    if os.path.exists(ref):
        return fr.load_model_file(ref)
    for model in fr.builtin_models():
        if model.name == ref:
            return model
    raise ModelError(f"no file or built-in model named {ref!r}")


# ---------------------------------------------------------------------------
# subcommands; each imports the layers it uses when it runs, so that a
# process loads only those


def cmd_chart(args) -> int:
    from .coefficients import chart_rows
    for row in chart_rows(args.pmin, args.pmax, args.qmin, args.qmax):
        print(row)
    return 0


def cmd_coeff(args) -> int:
    from .coefficients import (chart_lookup, coeff_degree, format_coeff,
                               format_laurent, format_pos_monomial,
                               parse_coeff, phi_shadow, restriction)
    from .degree import format_degree
    from .gf2 import format_sum
    x = parse_coeff(args.expr)
    for extra in args.times or []:
        x = x * parse_coeff(extra)
    info: dict = {"value": format_coeff(x)}
    if not x:
        info["degree"] = None
    else:
        try:
            d = coeff_degree(x)
        except ValueError:
            d = None
            info["degree"] = "mixed"
        if d is not None:
            info["degree"] = format_degree(d)
            info["dimension"] = d.dimension
            info["shape"] = chart_lookup(d).tag
            info["restriction"] = format_sum(
                format_pos_monomial((0, n)) for n in sorted(restriction(x)))
            info["shadow"] = format_laurent(phi_shadow(x))
    if args.json:
        import json
        print(json.dumps(info, sort_keys=True))
        return 0
    for key in ("value", "degree", "dimension", "shape", "restriction", "shadow"):
        if key in info and info[key] is not None:
            print(f"{key}: {info[key]}")
    return 0


def cmd_asteen(args) -> int:
    from . import dual_steenrod as ds
    from .coefficients import format_coeff
    if args.bound is not None and args.bound < 0:
        raise ValueError(f"bound must be non-negative, got {args.bound}")
    if args.sub == "normalize":
        e = ds.parse_expression(args.expr, args.bound)
        print(ds.format_element(e))
    elif args.sub == "coprod":
        e = ds.parse_expression(args.expr, args.bound)
        print(ds.format_tensor(ds.coproduct(e, args.bound)))
    elif args.sub == "psi":
        if re.fullmatch(r"\d+", args.expr):
            e = ds.psi({int(args.expr): 1}, args.bound)
        else:
            e = ds.parse_expression(args.expr, args.bound)
        print(ds.format_element(e))
    elif args.sub == "pn":
        # P_n is homogeneous of dimension n, so the bound is checked first
        if args.bound is not None and args.n > args.bound:
            raise DegreeOverflowError(
                f"P{args.n} of dimension {args.n} beyond bound {args.bound}")
        p, q = ds.p_sequence(args.n)
        print(f"P{args.n} = {ds.format_element(p)}")
        print(f"Q{args.n} = {ds.format_element(q)}")
    elif args.sub == "pair":
        mono_elem = ds.parse_expression(args.mono, args.bound)
        if len(mono_elem) != 1:
            raise ParseError("expected a single basis monomial", args.mono, 0)
        mono = next(iter(mono_elem))
        if mono[0] or mono[1]:
            raise ParseError("basis monomial must be coefficient-free",
                             args.mono, 0)
        e = ds.parse_expression(args.expr, args.bound)
        print(format_coeff(ds.pair(mono, e)))
    return 0


def _frame_json(name: str, ok: bool, verdicts) -> dict:
    return {"model": name, "ok": ok,
            "verdicts": [{"name": v.name, "ok": v.ok, "detail": v.detail}
                         for v in verdicts]}


def _print_frame_result(name: str, ok: bool, verdicts, as_json: bool) -> None:
    if as_json:
        import json
        print(json.dumps(_frame_json(name, ok, verdicts), sort_keys=True))
        return
    for v in verdicts:
        if v.ok:
            print(f"PASS {v.name}" + (f" ({v.detail})" if v.detail else ""))
        else:
            print(f"FAIL {v.name}: {v.detail}")
    print(f"FRAME {'PASS' if ok else 'FAIL'} {name}")


def cmd_frame(args) -> int:
    from . import frames as fr
    model = _resolve_model(args.model)
    ok, verdicts, _ = fr.frame_check(model, args.bound)
    _print_frame_result(model.name, ok, verdicts, args.json)
    return 0 if ok else 1


def cmd_examples(args) -> int:
    from . import frames as fr
    results = []
    failed = 0
    for model in fr.builtin_models():
        ok, verdicts, _ = fr.frame_check(model)
        results.append((model.name, ok, verdicts))
        if not ok:
            failed += 1
    if args.json:
        import json
        print(json.dumps([_frame_json(*r) for r in results], sort_keys=True))
        return 0 if failed == 0 else 1
    for name, ok, verdicts in results:
        if ok:
            print(f"PASS {name}")
        else:
            first = next(v for v in verdicts if not v.ok)
            print(f"FAIL {name}: {first.name}: {first.detail}")
    if failed:
        print(f"EXAMPLES FAIL ({failed} of {len(results)} models)")
        return 1
    print(f"EXAMPLES PASS ({len(results)} models)")
    return 0


def cmd_purity(args) -> int:
    from . import frames as fr
    from .gf2 import format_monomial
    model = _resolve_model(args.model)
    res = fr.purity_check(model, args.bound)
    if args.json:
        import json
        out = {"model": model.name, "ok": res.ok}
        if res.ok:
            out["generators"] = [{"class": format_monomial(m), "level": lvl}
                                 for m, lvl in res.module.generators]
        else:
            out["reason"] = res.reason
            out["degree"] = res.degree
        print(json.dumps(out, sort_keys=True))
        return 0 if res.ok else 1
    if res.ok:
        print(f"PURE {model.name}: {fr.format_generators(res.module)}")
        return 0
    print(f"IMPURE {model.name}: {res.reason} at {res.degree} "
          f"(dims {res.dims})")
    return 1


def cmd_steinberg(args) -> int:
    from . import frames as fr
    from .gf2 import parse_poly
    from .steenrod import format_bpoly, steinberg
    model = _resolve_model(args.model)
    names = [g for g, _ in model.even.generators]
    x = model.even.reduce(parse_poly(args.cls, names))
    if not x:
        print(f"rsigma({args.cls}) = 0")
        return 0
    model.even.poly_degree(x)  # homogeneous input only
    k0 = fr.kappa0_apply(model, x)
    sigma = steinberg(model.fixed, k0)
    print(f"rsigma({args.cls}) = {format_bpoly(sigma)}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return 0 if run_selftest(bound=args.bound) else 1


# ---------------------------------------------------------------------------
# parser; main builds only the subparser that argv names


def _chart_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pmin", type=int, default=-10)
    p.add_argument("--pmax", type=int, default=10)
    p.add_argument("--qmin", type=int, default=-10)
    p.add_argument("--qmax", type=int, default=10)
    p.set_defaults(func=cmd_chart)


def _coeff_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("expr")
    p.add_argument("--times", action="append",
                   help="multiply by another expression (repeatable)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coeff)


def _asteen_arguments(p: argparse.ArgumentParser) -> None:
    asub = p.add_subparsers(dest="sub", required=True)
    q = asub.add_parser("normalize", help="tau-square-free normal form")
    q.add_argument("expr")
    q.add_argument("--bound", type=int, default=None)
    q = asub.add_parser("coprod", help="coproduct of an expression")
    q.add_argument("expr")
    q.add_argument("--bound", type=int, default=None)
    q = asub.add_parser("psi", help="image of a classical Milnor monomial")
    q.add_argument("expr", help="an index n for the n-th generator, or a z-expression")
    q.add_argument("--bound", type=int, default=None)
    q = asub.add_parser("pn", help="P_n and Q_n of the quotient recursion")
    q.add_argument("n", type=int)
    q.add_argument("--bound", type=int, default=None)
    q = asub.add_parser("pair", help="coefficient pairing against a monomial")
    q.add_argument("mono")
    q.add_argument("expr")
    q.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_asteen)


def _frame_arguments(p: argparse.ArgumentParser) -> None:
    fsub = p.add_subparsers(dest="sub", required=True)
    q = fsub.add_parser("check", help="run all checks on one model")
    q.add_argument("model", help="a JSON model file or a built-in name")
    q.add_argument("--bound", type=int, default=None)
    q.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_frame)


def _examples_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_examples)


def _purity_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_purity)


def _steinberg_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")
    p.add_argument("--class", dest="cls", required=True,
                   help="homogeneous even class, e.g. x or x^2")
    p.set_defaults(func=cmd_steinberg)


def _selftest_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", type=int, default=10,
                   help="size bound (default: 10)")
    p.set_defaults(func=cmd_selftest)


# name -> (help, arguments), in the order that usage and help list them
SUBCOMMANDS = {
    "chart": ("CSV chart of the coefficient Mackey functor", _chart_arguments),
    "coeff": ("evaluate a coefficient-ring expression", _coeff_arguments),
    "asteen": ("dual equivariant Steenrod algebra", _asteen_arguments),
    "frame": ("conjugation-frame checks", _frame_arguments),
    "examples": ("check every built-in model", _examples_arguments),
    "purity": ("purity check for a model", _purity_arguments),
    "steinberg": ("frame value on an even class", _steinberg_arguments),
    "selftest": ("run the deterministic check registry", _selftest_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    Both parse a command line that starts with ``command`` to the same
    namespace and print the same texts for it; the usage line lists
    every subcommand either way.
    """
    parser = argparse.ArgumentParser(
        prog="conjspaces",
        description="Exact mod-2 computations: the RO(C2)-graded coefficient "
                    "ring, the dual equivariant Steenrod algebra, and "
                    "conjugation-space frames.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(SUBCOMMANDS))
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # help, a missing or an unknown subcommand need the whole parser
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader left: exit quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DegreeOverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
