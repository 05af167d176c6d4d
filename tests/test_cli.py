"""Command-line behaviour: frozen output lines and the exit-code contract.

Exit codes: 0 success, 1 failed mathematical check, 2 rejected input,
141 stdout closed early by its reader.
"""

import ast
import importlib.util
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conjspaces import cli, selftest
from conjspaces.frames import (builtin_models, cp_model, cp_product_model,
                               load_model_file, model_to_dict, save_model)
from grassmannian import grassmannian_model

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chart_window(capsys):
    code, out, err = run(capsys, "chart", "--pmin", "-2", "--pmax", "2",
                         "--qmin", "-2", "--qmax", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 25
    assert lines[0] == "-2,2,Fbar"
    assert lines[5] == "-1,2,dot"
    assert lines[12] == "0,0,Fbar"
    assert lines[24] == "2,-2,L"
    # q descends within ascending p
    assert lines[10] == "0,2,dot" and lines[11] == "0,1,dot"


def test_chart_empty_window_rejected(capsys):
    code, out, err = run(capsys, "chart", "--pmin", "3", "--pmax", "-3")
    assert code == 2 and err.startswith("error:")


def test_coeff_plain(capsys):
    code, out, _ = run(capsys, "coeff", "u^2")
    assert code == 0
    assert out.splitlines() == [
        "value: u^2",
        "degree: -2+2*al",
        "dimension: 0",
        "shape: Fbar",
        "restriction: u^2",
        "shadow: u^2",
    ]


def test_coeff_negative_cone(capsys):
    code, out, _ = run(capsys, "coeff", "th[1,2]")
    assert code == 0
    assert out.splitlines() == [
        "value: th[1,2]",
        "degree: 2-3*al",
        "dimension: -1",
        "shape: dot",
        "restriction: 0",
        "shadow: 0",
    ]


def test_coeff_json(capsys):
    code, out, _ = run(capsys, "coeff", "a*u", "--json")
    assert code == 0
    assert json.loads(out) == {
        "value": "a*u", "degree": "-1+2*al", "dimension": 1,
        "shape": "dot", "restriction": "0", "shadow": "a*u"}


def test_coeff_times(capsys):
    code, out, _ = run(capsys, "coeff", "a", "--times", "a", "--times", "u")
    assert code == 0
    assert out.splitlines()[0] == "value: a^2*u"
    assert "degree: -1+3*al" in out


def test_coeff_zero_and_mixed(capsys):
    code, out, _ = run(capsys, "coeff", "a", "--times", "th[0,2]")
    # a * th[0,2] needs i - 1 >= 0 with i = 0, so the product is zero
    assert code == 0 and out.splitlines() == ["value: 0"]
    # the zero it prints reads back
    for text in ("0", "0*a + u + u", "0^2"):
        code, out, _ = run(capsys, "coeff", text)
        assert code == 0 and out.splitlines() == ["value: 0"], text
    code2, out2, _ = run(capsys, "coeff", "a + u")
    assert code2 == 0 and "degree: mixed" in out2


def test_coeff_parse_error(capsys):
    code, out, err = run(capsys, "coeff", "a +")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "position" in err


def test_asteen_normalize(capsys):
    code, out, _ = run(capsys, "asteen", "normalize", "t0*t0")
    assert code == 0
    assert out.strip() == "a*t1 + a*t0*x1 + u*x1"


def test_asteen_normalize_bound(capsys):
    code, out, err = run(capsys, "asteen", "normalize", "x3", "--bound", "2")
    assert code == 2 and "beyond bound" in err


def test_asteen_coprod(capsys):
    code, out, _ = run(capsys, "asteen", "coprod", "t0")
    assert code == 0
    assert out.strip() == "1 (x) t0 + t0 (x) 1"
    code2, out2, _ = run(capsys, "asteen", "coprod", "x1")
    assert out2.strip() == "1 (x) x1 + x1 (x) 1"


def test_asteen_psi_checks_bound_first():
    # psi(z_40) has dimension 2^40 - 1: the bound must stop it before
    # anything is computed
    cmd = [sys.executable, "-m", "conjspaces", "asteen", "psi", "40",
           "--bound", "10"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "beyond bound 10" in proc.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(["normalize", "z40"], id="normalize"),
    pytest.param(["psi", "z40"], id="psi"),
    pytest.param(["pair", "z40", "x1"], id="pair"),
    pytest.param(["pn", "40"], id="pn"),
])
def test_asteen_z_factor_checks_bound_first(argv):
    # z40 expands to psi(z_40) of dimension 2^40 - 1; the term's dimension
    # is read from its factors, so the bound stops it before expansion.
    # P_40 has dimension 40 and is refused before the recursion runs.
    cmd = [sys.executable, "-m", "conjspaces", "asteen", *argv,
           "--bound", "10"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "beyond bound 10" in proc.stderr


def test_asteen_term_beyond_bound_refused_even_if_it_cancels(capsys):
    code, out, err = run(capsys, "asteen", "normalize", "z5 + z5", "--bound", "10")
    assert code == 2 and out == "" and "beyond bound 10" in err
    code, out, _ = run(capsys, "asteen", "normalize", "z5 + z5")
    assert code == 0 and out.strip() == "0"


def test_asteen_psi(capsys):
    code, out, _ = run(capsys, "asteen", "psi", "2")
    assert code == 0
    assert out.strip() == "a*t0*t1 + a^2*t0*x1^2 + a^3*x2 + u*t1"
    # the image of z1^2 is the square of the image of z1, tau-reduced
    code2, out2, _ = run(capsys, "asteen", "psi", "z1^2")
    assert code2 == 0
    assert out2.strip() == "a*t1 + a*t0*x1 + a^2*x1^2 + u*x1"


def test_asteen_pn(capsys):
    code, out, _ = run(capsys, "asteen", "pn", "2")
    assert code == 0
    assert out.splitlines() == ["P2 = a^2*x1^2 + u*x1", "Q2 = a*x1"]


def test_asteen_pair(capsys):
    code, out, _ = run(capsys, "asteen", "pair", "x1^2", "z1^2")
    assert code == 0 and out.strip() == "a^2"
    code2, out2, _ = run(capsys, "asteen", "pair", "x1^2", "z1^3")
    assert code2 == 0 and out2.strip() == "0"


def test_asteen_pair_rejects_sums_and_coefficients(capsys):
    code, _, err = run(capsys, "asteen", "pair", "t0 + x1", "z1")
    assert code == 2 and "single basis monomial" in err
    code2, _, err2 = run(capsys, "asteen", "pair", "a*t0", "z1")
    assert code2 == 2 and "coefficient-free" in err2


@pytest.mark.parametrize("argv, field", [
    pytest.param(["normalize", "x1^1048576"], "xi_1", id="normalize"),
    pytest.param(["normalize", "x1^1048576*1"], "xi_1", id="normalize-times-1"),
    pytest.param(["normalize", "1*x1^1048576"], "xi_1", id="normalize-1-times"),
    pytest.param(["coprod", "x1^1048576"], "xi_1", id="coprod"),
    pytest.param(["psi", "x1^1048576"], "xi_1", id="psi"),
    pytest.param(["pair", "x1^1048576", "x1^1048576"], "xi_1", id="pair"),
    pytest.param(["normalize", "a^1048576"], "a", id="a"),
    pytest.param(["normalize", "a^1048576*1"], "a", id="a-times-1"),
    pytest.param(["normalize", "u^1048576 + x1"], "u", id="u-in-a-sum"),
])
def test_asteen_packed_field_guard_ignores_spelling(capsys, argv, field):
    code, out, err = run(capsys, "asteen", *argv)
    assert code == 2 and out == ""
    assert err == (f"error: exponent of {field} beyond 1048575, "
                   "the largest its packed field holds\n")


@pytest.mark.parametrize("argv", [
    pytest.param(["psi", "z1^1100000"], id="psi"),
    pytest.param(["coprod", "z1^2000000"], id="coprod"),
    pytest.param(["pair", "x1", "z1^99999999"], id="pair"),
])
def test_asteen_psi_power_past_the_a_field_exits_2(capsys, argv):
    # psi(z_1)^e holds a^e xi_1^e, refused before it is multiplied out
    code, out, err = run(capsys, "asteen", *argv)
    assert code == 2 and out == ""
    assert err == ("error: exponent of a beyond 1048575, "
                   "the largest its packed field holds\n")


def test_asteen_largest_packed_exponent_reads(capsys):
    code, out, _ = run(capsys, "asteen", "normalize", "x1^1048575*1")
    assert code == 0 and out == "x1^1048575\n"


def test_asteen_index_past_the_limit_exits_2_at_once(capsys):
    # a packed monomial has one field per xi index, so x100000 took
    # seconds to pack; the index is refused before 2^index is built
    start = time.perf_counter()
    code, out, err = run(capsys, "asteen", "normalize", "x100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("error: xi_100000 beyond index 1023, the largest xi "
                   "index a packed monomial holds\n")
    for text in ("x70", "x1023"):
        code, out, _ = run(capsys, "asteen", "normalize", text)
        assert code == 0 and out == f"{text}\n"


def test_frame_check_builtin(capsys):
    code, out, _ = run(capsys, "frame", "check", "CP^2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS purity (generators: 1@0, x@1, x^2@2)"
    assert lines[-1] == "FRAME PASS CP^2"
    assert sum(1 for l in lines if l.startswith("PASS ")) == 6


def test_frame_check_json(capsys):
    code, out, _ = run(capsys, "frame", "check", "CP^1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["model"] == "CP^1" and data["ok"] is True
    assert [v["name"] for v in data["verdicts"]] == [
        "purity", "conjugation-equation", "steenrod-compat",
        "frame-multiplicative", "nakayama-splitting", "borel-vs-R"]


def test_frame_check_file(tmp_path, capsys):
    path = tmp_path / "cp2.json"
    save_model(cp_model(2), str(path))
    code, out, _ = run(capsys, "frame", "check", str(path))
    assert code == 0 and out.splitlines()[-1] == "FRAME PASS CP^2"


def test_frame_check_failing_model_exits_1(tmp_path, capsys):
    data = {
        "name": "broken", "bound": 2,
        "even": {"generators": [{"name": "x", "degree": 2}],
                 "relations": ["x^2"], "bound": 12},
        "fixed": {"generators": [{"name": "t", "degree": 1}],
                  "relations": ["t^3"], "bound": 12},
        "kappa0": {"x": "t"},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    # the fixed points carry an extra class in degree 2, past the model
    # bound that purity scans; the squares still see it via Sq^1 t = t^2
    code, out, _ = run(capsys, "frame", "check", str(path))
    assert code == 1
    assert "FRAME FAIL broken" in out and "FAIL steenrod-compat" in out


def test_frame_check_bound_past_the_file_bound(tmp_path, capsys):
    # kappa0(x) <-> kappa0(y) on CP^1xCP^2, saved with bound 0: --bound 6
    # checks the squares and products of every class through degree 6
    data = model_to_dict(cp_product_model(1, 2))
    kappa0 = data["kappa0"]
    kappa0["x"], kappa0["y"] = kappa0["y"], kappa0["x"]
    data["bound"] = 0
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "frame", "check", str(path), "--bound", "6")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "FRAME FAIL CP^1xCP^2"
    assert any(l.startswith("FAIL steenrod-compat") for l in lines)
    assert any(l.startswith("FAIL frame-multiplicative") for l in lines)


def test_frame_check_mixed_degree_kappa0(tmp_path):
    data = model_to_dict(cp_model(2))
    data["kappa0"]["x"] = "t + t^2"
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    cmd = [sys.executable, "-m", "conjspaces", "frame", "check", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "/kappa0/x" in proc.stderr


def edited_model_file(tmp_path, edit):
    """CP^2 as a JSON file, with the value at the keys edit[:-1] set to
    edit[-1]."""
    data = model_to_dict(cp_model(2))
    *keys, last, value = edit
    target = data
    for key in keys:
        target = target[key]
    target[last] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("edit, pointer", [
    pytest.param(("bound", True), "/bound", id="bound-true"),
    pytest.param(("even", "generators", 0, "degree", True),
                 "/even/generators/0", id="degree-true"),
    pytest.param(("fixed", "generators", 0, "name", "t u"),
                 "/fixed/generators/0", id="name-with-space"),
    pytest.param(("even", "name", 5), "/even/name", id="even-name-int"),
    pytest.param(("fixed", "name", ["x"]), "/fixed/name",
                 id="fixed-name-list"),
])
def test_model_with_bool_or_bad_name_exits_2(capsys, tmp_path, edit, pointer):
    # a JSON boolean is no integer, a generator name must read back, and
    # an algebra name is a string, as errors print it and save_model
    # writes it back
    path = edited_model_file(tmp_path, edit)
    code, out, err = run(capsys, "frame", "check", path)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {pointer}: ")


def misspelt(data: dict, *path) -> dict:
    """data with the last key of path renamed by dropping its last
    letter, the object that holds it reached through the keys before."""
    *keys, last = path
    target = data
    for key in keys:
        target = target[key]
    target[last[:-1]] = target.pop(last)
    return data


@pytest.mark.parametrize("path, pointer", [
    pytest.param(("fixed", "relations"), "/fixed/relation", id="fixed"),
    pytest.param(("even", "relations"), "/even/relation", id="even"),
    pytest.param(("kappa0",), "/kappa", id="top-level"),
    pytest.param(("even", "generators", 0, "degree"),
                 "/even/generators/0/degre", id="generator"),
])
@pytest.mark.parametrize("argv", [["purity"], ["frame", "check"]],
                         ids=["purity", "frame-check"])
def test_model_with_unknown_key_exits_2(capsys, tmp_path, path, pointer,
                                        argv):
    # a misspelt key would read as absent: with the fixed relations gone,
    # purity called the model PURE CP^2, and with the even ones frame
    # check blamed kappa0 for the class x^4
    data = json.loads((MODELS / "cp2.json").read_text())
    if path[-1] == "degree":  # a generator needs its degree first
        data["even"]["generators"][0]["degre"] = 2
    else:
        data = misspelt(data, *path)
    file = tmp_path / "model.json"
    file.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(file))
    key = pointer.rsplit("/", 1)[1]
    assert code == 2 and out == ""
    assert err == f"error: {pointer}: unknown key {key!r}\n"


def test_model_files_and_saved_models_load(tmp_path):
    # the key check refuses nothing that save_model writes
    saved = tmp_path / "model.json"
    for model in [*builtin_models(), grassmannian_model(5)]:
        save_model(model, str(saved))
        assert load_model_file(str(saved)).kappa0 == model.kappa0
    for path in sorted(MODELS.glob("*.json")):
        load_model_file(str(path))


@pytest.mark.parametrize("argv, edit, pointer", [
    pytest.param(["steinberg", "CP^2", "--class", "x +"], None, None,
                 id="steinberg-class"),
    pytest.param(["frame", "check"], ("even", "relations", 0, "x^3 +"),
                 "/even/relations/0", id="relation"),
    pytest.param(["frame", "check"], ("kappa0", "x", "t *"), "/kappa0/x",
                 id="kappa0-value"),
    pytest.param(["coeff", "a*"], None, None, id="coeff"),
])
def test_dangling_operator_exits_2(tmp_path, argv, edit, pointer):
    # a trailing + or * is rejected input: exit 2 with an error line, never
    # a traceback or a value read without it
    if edit is not None:
        argv = [*argv, edited_model_file(tmp_path, edit)]
    cmd = [sys.executable, "-m", "conjspaces", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    if pointer is not None:
        assert pointer in proc.stderr


def test_repeated_json_key_exits_2(capsys, tmp_path):
    # json.loads alone keeps the last of two values for one key
    text = json.dumps(model_to_dict(cp_model(2)))
    path = tmp_path / "model.json"
    path.write_text(text.replace('"x": "t"', '"x": "t^2", "x": "t"'))
    code, out, err = run(capsys, "frame", "check", str(path))
    assert code == 2 and out == ""
    assert err == "error: repeated key 'x' in a JSON object\n"


def test_frame_missing_file(capsys):
    code, _, err = run(capsys, "frame", "check", "/nonexistent/model.json")
    assert code == 2 and "no file or built-in model" in err


def test_frame_malformed_model(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}')
    code, _, err = run(capsys, "frame", "check", str(path))
    assert code == 2 and "/bound" in err


def test_purity_output(capsys):
    code, out, _ = run(capsys, "purity", "S^2+2al")
    assert code == 0
    assert out.strip() == "PURE S^2+2al: 1@0, x@2"


def test_purity_json(capsys):
    code, out, _ = run(capsys, "purity", "CP^1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"model": "CP^1", "ok": True,
                    "generators": [{"class": "1", "level": 0},
                                   {"class": "x", "level": 1}]}


def test_steinberg_output(capsys):
    code, out, _ = run(capsys, "steinberg", "CP^2", "--class", "x")
    assert code == 0 and out.strip() == "rsigma(x) = b*t + t^2"
    code2, out2, _ = run(capsys, "steinberg", "CP^2", "--class", "x^2")
    assert out2.strip() == "rsigma(x^2) = b^2*t^2"
    code3, out3, _ = run(capsys, "steinberg", "CP^2", "--class", "x^3")
    assert out3.strip() == "rsigma(x^3) = 0"


def test_steinberg_rejects_mixed_class(capsys):
    code, _, err = run(capsys, "steinberg", "CP^2", "--class", "x + 1")
    assert code == 2 and "homogeneous" in err


def test_selftest_small_bound(capsys):
    code, out, _ = run(capsys, "selftest", "--bound", "3")
    assert code == 0
    assert out.splitlines()[-1] == "SELFTEST PASS (34 checks)"


SELFTEST_STDOUT = (
    "PASS binom-pascal\n"
    "PASS poly-ring\n"
    "PASS chart-one-dim\n"
    "PASS chart-lewis\n"
    "PASS coeff-ring\n"
    "PASS coeff-arrows\n"
    "PASS coeff-restriction\n"
    "PASS phi-shadow\n"
    "PASS laurent-rings\n"
    "PASS tensor-module\n"
    "PASS free-module-degrees\n"
    "PASS coeff-parse\n"
    "PASS sq-binomial\n"
    "PASS cartan\n"
    "PASS instability\n"
    "PASS adem\n"
    "PASS steinberg\n"
    "PASS r-series\n"
    "PASS doubling\n"
    "PASS tau-relation\n"
    "PASS tau-confluence\n"
    "PASS hopf-axioms\n"
    "PASS right-unit\n"
    "PASS psi\n"
    "PASS abar-p\n"
    "PASS pairing\n"
    "PASS coefficient-action\n"
    "PASS action-restriction\n"
    "PASS eq-parse\n"
    "PASS frames\n"
    "PASS frame-mutations\n"
    "PASS unique-sections\n"
    "PASS kappa-shadow\n"
    "PASS model-roundtrip\n"
    "SELFTEST PASS (34 checks)\n"
)


def test_selftest_stdout_pinned(capsys):
    # every check by name, in registry order, at the default bound
    code, out, _ = run(capsys, "selftest", "--bound", "10")
    assert code == 0
    assert out == SELFTEST_STDOUT


@pytest.mark.parametrize("argv", [
    ("frame", "check", "CP^2", "--bound", "-3"),
    ("purity", "CP^2", "--bound", "-2"),
    ("selftest", "--bound", "-1"),
])
def test_negative_bound_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "non-negative" in err


@pytest.mark.parametrize("argv", [
    ("normalize", "a"), ("coprod", "a"), ("psi", "3"), ("pn", "2"),
    ("pair", "z1", "z1"),
])
def test_asteen_negative_bound_rejected(capsys, argv):
    code, out, err = run(capsys, "asteen", *argv, "--bound", "-1")
    assert (code, out) == (2, "")
    assert err == "error: bound must be non-negative, got -1\n"


def package_modules(code: str, *argv: str) -> tuple[str, list[str]]:
    """Run ``code`` in a fresh interpreter; the last line it prints is a
    Python list literal, returned with the conjspaces modules loaded."""
    code += ("; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'conjspaces'))")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *head, last = proc.stdout.splitlines()
    return "\n".join(head), ast.literal_eval(last)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses and inspect cost each CLI process about 30 ms of start-up,
    # json about 3 ms; only model files and --json outputs need json.  The
    # package modules are pinned too: importing the command line loads no
    # layer, each subcommand imports its own when it runs.
    stdlib, package = package_modules(
        "import sys, conjspaces.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    assert stdlib == "[]"
    assert package == ["conjspaces", "conjspaces.cli", "conjspaces.errors"]


COEFF_LAYERS = ["coefficients", "degree", "gf2", "record"]
FRAME_LAYERS = ["frames", "gf2", "record", "steenrod"]


@pytest.mark.parametrize("command, layers", [
    ("coeff a", COEFF_LAYERS),
    ("chart --pmin 0 --pmax 1", COEFF_LAYERS),
    ("asteen psi 2", COEFF_LAYERS + ["dual_steenrod"]),
    ("frame check CP^2", FRAME_LAYERS),
    ("purity CP^2", FRAME_LAYERS),
    ("steinberg CP^2 --class x", FRAME_LAYERS),
    ("examples", FRAME_LAYERS),
    ("selftest --bound 2",
     COEFF_LAYERS + ["dual_steenrod", "frames", "selftest", "steenrod"]),
])
def test_each_subcommand_loads_only_its_layers(command, layers):
    _, package = package_modules(
        "import sys, conjspaces.cli; "
        "assert conjspaces.cli.main(sys.argv[1:]) == 0", *command.split())
    assert package == sorted(["conjspaces", "conjspaces.cli", "conjspaces.errors"]
                             + [f"conjspaces.{m}" for m in layers])


def cli_mix_argvs() -> list[list[str]]:
    """The command lines of the benchmark's cli-mix pool, read from
    perfbench/workloads.py, which imports nothing of the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("cli_mix_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [op["argv"] for op in workloads.pool("cli-mix")]


# every option of every subcommand, next to the cli-mix pool
ARGVS = [
    ["chart"], ["coeff", "a", "--times", "u", "--times", "a", "--json"],
    ["asteen", "normalize", "t0*t0", "--bound", "4"],
    ["asteen", "coprod", "x1", "--bound", "3"], ["asteen", "psi", "z1^2"],
    ["asteen", "pn", "3", "--bound", "5"], ["asteen", "pair", "x1", "z1"],
    ["frame", "check", "CP^2", "--bound", "4", "--json"],
    ["examples", "--json"], ["purity", "CP^2", "--bound", "3", "--json"],
    ["steinberg", "CP^2", "--class", "x^2"], ["selftest", "--bound", "3"],
]


def test_one_subparser_parses_like_the_whole_parser():
    argvs = ARGVS + cli_mix_argvs()
    assert {argv[0] for argv in argvs} == set(cli.SUBCOMMANDS)
    for argv in argvs:
        assert (cli.build_parser(argv[0]).parse_args(argv)
                == cli.build_parser().parse_args(argv)), argv
    usage = cli.build_parser().format_usage()
    assert all(cli.build_parser(name).format_usage() == usage
               for name in cli.SUBCOMMANDS)


def exit_texts(capsys, parse, argv) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    *([name, "-h"] for name in cli.SUBCOMMANDS),
    ["asteen", "psi", "-h"], ["frame", "check", "-h"],
    ["frame", "examples"], ["frame"], ["asteen"], ["asteen", "pn", "two"],
    ["coeff"], ["coeff", "a", "--bogus"], ["chart", "--pmin", "x"],
    ["steinberg", "CP^2"], ["selftest", "--bound"], ["examples", "extra"],
    ["-h"], [], ["bogus"], ["--help", "coeff"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_argument_errors_match_the_whole_parser(capsys, argv):
    got = exit_texts(capsys, cli.main, argv)
    assert got == exit_texts(capsys, cli.build_parser().parse_args, argv)
    code, out, err = got
    if "-h" in argv or "--help" in argv:
        assert (code, err) == (0, "") and out.startswith("usage: conjspaces")
    else:
        assert (code, out) == (2, "") and err.startswith("usage: conjspaces")


def test_top_level_texts_list_every_subcommand(capsys):
    # argparse wraps the usage line to the terminal width
    usage = ("usage: conjspaces [-h] "
             "{chart,coeff,asteen,frame,examples,purity,steinberg,selftest} ...")

    def words(argv):
        code, out, err = exit_texts(capsys, cli.main, argv)
        return code, " ".join(out.split()), " ".join(err.split())

    code, out, _ = words(["-h"])
    assert code == 0 and out.startswith(usage)
    assert "selftest run the deterministic check registry" in out
    assert words([]) == (2, "", f"{usage} conjspaces: error: the following "
                                "arguments are required: command")
    code, _, err = words(["bogus"])
    assert code == 2 and err.startswith(
        f"{usage} conjspaces: error: argument command: invalid choice: ")
    # an argument left over after a subcommand is refused by the top level
    assert words(["coeff", "a", "--bogus"]) == (
        2, "", f"{usage} conjspaces: error: unrecognized arguments: --bogus")


def test_main_builds_only_the_subparser_argv_names(capsys, monkeypatch):
    built, whole = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or whole(command))
    assert cli.main(["coeff", "a"]) == 0
    for argv in (["bogus"], ["-h"], []):
        with pytest.raises(SystemExit):
            cli.main(argv)
    capsys.readouterr()
    assert built == ["coeff", None, None, None]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["conjspaces", "coeff", "a", "--json"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["value"] == "a"


def test_cli_subcommands_are_pinned(capsys):
    usage = cli.build_parser().format_usage()
    assert ("{chart,coeff,asteen,frame,examples,purity,steinberg,selftest}"
            in usage)
    # every built-in model is checked by the top-level examples only
    with pytest.raises(SystemExit) as exc:
        cli.main(["frame", "examples"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "usage: conjspaces frame [-h] {check} ..." in captured.err
    assert "invalid choice" in captured.err


@pytest.mark.parametrize("side, relation, printed", [
    ("even", "c1^3 + c1*c2", "c1*c2 + c1^3"),
    ("fixed", "w1^3 + w1*w2", "w1*w2 + w1^3"),
])
def test_model_whose_squares_move_a_relation_exits_2(capsys, tmp_path, side,
                                                     relation, printed):
    # Gr_2(C^4) with a relation whose total square does not reduce to 0:
    # the squares are no ring map of the quotient, so the file is refused
    data = model_to_dict(grassmannian_model(4))
    data[side]["relations"][0] = relation
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "frame", "check", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: /{side}/relations/0: the squares of {printed} "
                   "do not reduce to 0 through degree 16\n")


def test_examples_in_process(capsys):
    names = [m.name for m in builtin_models()]
    code, out, err = run(capsys, "examples")
    assert (code, err) == (0, "")
    assert out.splitlines() == ([f"PASS {n}" for n in names]
                                + [f"EXAMPLES PASS ({len(names)} models)"])
    code, out, err = run(capsys, "examples", "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert [d["model"] for d in data] == names
    assert all(d["ok"] for d in data)
    assert {tuple(v["name"] for v in d["verdicts"]) for d in data} == {(
        "purity", "conjugation-equation", "steenrod-compat",
        "frame-multiplicative", "nakayama-splitting", "borel-vs-R")}


def test_examples_fail_on_a_swapped_model(capsys, monkeypatch):
    # a kappa0 that swaps c1^2 and c2 is a graded bijection but no ring map
    models = [cp_model(2), grassmannian_model(4, swap=True)]
    monkeypatch.setattr("conjspaces.frames.builtin_models", lambda: models)
    code, out, err = run(capsys, "examples")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "PASS CP^2"
    assert lines[1].startswith("FAIL Gr_2(C^4)-swap: ")
    assert lines[-1] == "EXAMPLES FAIL (1 of 2 models)"
    code, out, err = run(capsys, "examples", "--json")
    assert (code, err) == (1, "")
    assert [d["ok"] for d in json.loads(out)] == [True, False]


def impure_model_file(tmp_path):
    """CP^2 even over RP^1 fixed: level 2 has an even class and no fixed
    one, so the file loads and purity fails there."""
    data = model_to_dict(cp_model(2))
    data["name"] = "impure"
    data["fixed"]["relations"] = ["t^2"]
    data["kappa0"]["x^2"] = "0"
    path = tmp_path / "impure.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_purity_on_an_impure_model_exits_1(capsys, tmp_path):
    path = impure_model_file(tmp_path)
    code, out, err = run(capsys, "purity", path)
    assert (code, err) == (1, "")
    assert out == "IMPURE impure: level dimension mismatch at 2 (dims (1, 0))\n"
    code, out, err = run(capsys, "purity", path, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"model": "impure", "ok": False,
                               "reason": "level dimension mismatch",
                               "degree": 2}


def test_asteen_pn_past_the_bound_exits_2(capsys):
    code, out, err = run(capsys, "asteen", "pn", "5", "--bound", "3")
    assert (code, out) == (2, "")
    assert err == "error: P5 of dimension 5 beyond bound 3\n"


def test_asteen_pn_past_the_a_field_exits_2_at_once():
    # P_n holds a^n xi_1^n, so it is refused before any term is built
    cmd = [sys.executable, "-m", "conjspaces", "asteen", "pn", "1048576"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: exponent of a beyond 1048575, "
                           "the largest its packed field holds\n")


def readme_commands() -> list[tuple[list[str], str]]:
    """(argv, trailing comment) of each line of README's "Command line"
    block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    out = []
    for line in block.split("```", 1)[0].splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "conjspaces", line
        out.append((argv[1:], line.partition("#")[2].strip()))
    return out


def test_readme_command_line_block_runs(capsys, monkeypatch):
    # each command exits 0 from the repository root; where the comment is
    # the literal output, stdout equals it
    monkeypatch.chdir(ROOT)
    literal = []
    for argv, comment in readme_commands():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if out == comment + "\n":
            literal.append(argv[0] if argv[0] != "asteen" else argv[1])
    assert literal == ["normalize", "coprod", "pair", "purity", "steinberg"]


def test_closed_stdout_pipe_exits_141_silently():
    # the reader leaves after one line, as `| head -n 1` does: the window
    # writes more than a pipe holds, so the writer meets the closed pipe
    cmd = [sys.executable, "-m", "conjspaces", "chart", "--pmin", "-300",
           "--pmax", "300"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        assert proc.stdout.readline() == "-300,10,0\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.stderr.close()


def test_frame_check_on_a_directory_exits_2(capsys, tmp_path):
    # the path exists, so it is opened as a model file: OSError
    code, out, err = run(capsys, "frame", "check", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_selftest_reports_failing_and_crashing_checks(capsys, monkeypatch):
    def failing(bound):
        selftest._fail(f"wrong at bound {bound}")

    def crashing(bound):
        raise TypeError("no such operand")

    monkeypatch.setattr(selftest, "REGISTRY", (
        ("fine", lambda bound: None), ("failing", failing),
        ("crashing", crashing)))
    code, out, err = run(capsys, "selftest", "--bound", "2")
    assert (code, err) == (1, "")
    assert out == ("PASS fine\n"
                   "FAIL failing: wrong at bound 2\n"
                   "FAIL crashing: TypeError: no such operand\n"
                   "SELFTEST FAIL (2 of 3 checks failed)\n")
