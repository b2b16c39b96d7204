"""The lazy `qgs` package surface, and the modules each subcommand imports.

A run should import only what its subcommand calls.  Nothing in the
package loads numpy: jw-verify checks the projections one weight sector at
a time in floats, and one probe resolves every public name and runs each
public templieb function with numpy and mpmath unimportable.  No
subcommand loads mpmath at either kind of q: a
decimal q is held as its exact binary value, the spectral kernels
(eigenvalues, q-dimensions, the fusion sums, the HS certificate) and the
Temperley-Lieb fusion kernels run on decimal.Decimal, and gap-scan's cells
are floats; those probes run under -S, one argv per shape of job.  mpmath
is the tests' oracle alone: one probe runs the README's CLI examples and
every public Decimal result with mpmath unimportable.  The
package's records are named tuples, so no subcommand's default run (JSON
to stdout), at rational or at decimal q, loads dataclasses (which pulls
in inspect, ast and dis), typing, pathlib or csv; that probe runs under -S, with this qgs and mpmath's directory
put on sys.path by hand, as a site hook (a .pth file) may import typing or
pathlib before any of it.  Each check runs in a fresh interpreter, since
this process has imported everything already; it asserts module names,
not times.  The README's ceiling table is checked against the MAX_*
constants the package defines.
"""

import csv
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import qgs
from qgs.chebyshev import _context
from test_cli import SUITES
from test_spectrum import closed_form_eigenvalue

_SRC = str(Path(qgs.__file__).resolve().parents[1])


def _fresh(code, *args):
    """Run code in a new interpreter with this qgs on its path; its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(done.stdout)


_RUN = """
import contextlib, io, json, sys
import qgs.cli
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qgs.cli.main(argv)
print(json.dumps([code, sorted(m for m in ("numpy", "mpmath") if m in sys.modules)]))
"""


def _loaded(argv):
    code, modules = _fresh(_RUN, json.dumps(argv))
    assert code in (None, 0, 1)  # a record with its verdict, not an error
    return set(modules)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["freeprod-verify", "--max-x", "2", "--max-side", "1", "--algebras", "2"],
        ["freeprod-verify", "--b", "0,1", "--x", "1,0,1", "--a", "1,0"],
    ],
)
def test_import_and_word_calculus_load_neither_numpy_nor_mpmath(argv):
    assert _loaded(argv) == set()


_BEYOND_BARE = """
import sys
bare = set(sys.modules)
import contextlib, io, json
import qgs.cli
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qgs.cli.main(argv)
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["freeprod-verify", "--max-x", "2", "--max-side", "1", "--algebras", "2"],
        ["freeprod-verify", "--b", "0,1", "--x", "1,0,1", "--a", "1,0"],
    ],
)
def test_word_calculus_loads_neither_dataclasses_nor_inspect(argv):
    # counted beyond the modules the bare interpreter has loaded, since site
    # hooks differ between machines; dataclasses imports inspect, ast and dis
    code, loaded = _fresh(_BEYOND_BARE, json.dumps(argv))
    assert code == 0
    assert "qgs.freewords" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["freeprod-verify", "--max-x", "2", "--max-side", "1", "--algebras", "2"],
        ["freeprod-verify", "--b", "0,1", "--x", "1,0,1", "--a", "1,0", "--format", "csv"],
    ],
)
def test_cli_import_and_word_calculus_load_neither_decimal_nor_fractions(argv):
    # cli formats a number past the double range through decimal, and
    # imports decimal and fractions there alone (fractions imports decimal);
    # freewords, on int coefficients, imports neither
    code, loaded = _fresh(_BEYOND_BARE, json.dumps(argv))
    assert code == (0 if argv else None)
    assert "qgs.cli" in loaded
    assert not {"decimal", "fractions"} & set(loaded)


_WORDS = """
import json, sys
bare = set(sys.modules)
import qgs, qgs.freewords
from qgs import expansion_sweep, verify_boundary_expansion
gone = [[hasattr(module, name) for module in (qgs, qgs.freewords)] for name in sys.argv[1:]]
rep = verify_boundary_expansion((0, 1), (1, 0, 1), (1, 0))
reports = expansion_sweep(max_x=3, max_side=2, algebras=3)
print(json.dumps([gone, rep.passed and not rep.lhs_is_zero, len(reports),
                  sorted({"decimal", "fractions"} & set(sys.modules) - bare)]))
"""
_REMOVED_WORD_NAMES = ("multiply", "reduce_product", "apply_generator", "circle", "star",
                       "gradient_commutator", "hs_propagation_bound", "word")


def test_word_calculus_keeps_the_verifier_alone():
    # the expression algebra left the library: each removed name is an
    # AttributeError on the package and on freewords, and the verifier run
    # from the library, a pattern and a sweep, loads neither decimal nor fractions
    gone, verified, patterns, loaded = _fresh(_WORDS, *_REMOVED_WORD_NAMES)
    assert gone == [[False, False]] * len(_REMOVED_WORD_NAMES)
    assert verified and patterns > 300
    assert loaded == []
    assert not set(_REMOVED_WORD_NAMES) & set(qgs.__all__)
    assert {"Expression", "Letter", "PhiSymbol", "atom", "expansion_sweep",
            "verify_boundary_expansion"} <= set(qgs.__all__)


_BUDGET = """
import sys
sys.path[:0] = sys.argv[1:3]
import contextlib, io, json
import qgs.cli
def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return [qgs.cli.main(argv), out.getvalue()]
argv = json.loads(sys.argv[3])
default = run(argv)
# what a default run (JSON to stdout) does without; csv serves --format csv alone
loaded = [m for m in ("dataclasses", "inspect", "typing", "pathlib", "csv") if m in sys.modules]
print(json.dumps([loaded, default, run(argv + ["--format", "csv"])]))
"""


def _rational_and_decimal(argv):
    """argv with its q as a fraction and as a decimal, or argv alone if it has no q."""
    if "--q" not in argv:
        return [pytest.param(list(argv), id=argv[0])]
    at = argv.index("--q") + 1
    q = Fraction(argv[at])
    return [pytest.param([*argv[:at], text, *argv[at + 1:]], id=f"{argv[0]}-{text}")
            for text in (str(q), str(float(q)))]


@pytest.mark.parametrize("argv", [p for suite in SUITES for p in _rational_and_decimal(suite)])
def test_default_run_loads_no_dataclasses_typing_pathlib_or_csv(argv):
    mpmath_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("mpmath").origin))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _BUDGET, _SRC, mpmath_dir, json.dumps(argv)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded, (code, out), (csv_code, csv_out) = json.loads(done.stdout)
    assert loaded == []
    assert code == csv_code and code in (0, 1)
    record = json.loads(out)
    header = list(record["rows"][0]) if "rows" in record else [*record["result"], "verdict"]
    assert next(csv.reader(io.StringIO(csv_out))) == header


@pytest.mark.parametrize("q", ["0.5", "1/2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--N", "2", "--alpha-max", "5"],
        ["gap-scan", "--N", "2", "--alpha-max", "12", "--gamma-max", "1"],
        ["amenability", "--N", "2", "--n-max", "2000", "--warmup", "100"],
        ["lemma65", "--alpha-max", "4"],
        ["pentagon", "--alpha", "4", "--r", "2", "--s", "1", "--k", "-1", "--l", "0"],
        ["jw-verify", "--n-max", "3"],
        ["jw-verify", "--n-max", "14"],
    ],
)
def test_spectral_suites_do_not_load_numpy(argv, q):
    assert "numpy" not in _loaded(argv + ["--q", q])


# suites whose exact route, at rational q, needs no mpmath
_EXACT_ROUTE = [
    ["spectrum", "--N", "2", "--alpha-max", "5"],
    ["fusion", "--N", "2", "--alpha-max", "4"],
    ["fusion", "--N", "2", "--alpha", "3", "--beta", "4"],
    ["gap-scan", "--N", "2", "--alpha-max", "12", "--gamma-max", "1"],
    ["amenability", "--N", "2", "--n-max", "2000", "--warmup", "100"],
]


@pytest.mark.parametrize(
    "argv",
    [
        *(argv + ["--q", "1/2"] for argv in _EXACT_ROUTE),
        ["amenability", "--N", "2", "--q", "1", "--n-max", "2000", "--warmup", "100"],
    ],
)
def test_rational_q_suites_do_not_load_mpmath(argv):
    assert "mpmath" not in _loaded(argv)


def test_rational_q_usage_error_does_not_load_mpmath():
    argv = ["spectrum", "--N", "2", "--q", "1/0", "--alpha-max", "5"]
    assert _fresh(_RUN, json.dumps(argv)) == [2, []]


_BARE = """
import sys
sys.path[:0] = sys.argv[1:3]
import contextlib, io, json
import qgs.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qgs.cli.main(json.loads(sys.argv[3]))
print(json.dumps([code, "mpmath" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        *(argv + ["--q", q] for q in ("0.5", "1/3") for argv in (
            ["jw-verify", "--n-max", "10"],
            ["lemma65", "--alpha-max", "5"],
            ["pentagon", "--alpha", "4", "--r", "2", "--s", "1", "--k", "-1", "--l", "0"],
        )),
        ["gap-scan", "--N", "2", "--q", "0.5", "--alpha-max", "12", "--gamma-max", "1"],
    ],
)
def test_tl_chain_and_decimal_gap_scan_leave_mpmath_unloaded(argv):
    assert _bare(argv) == [0, False]


def _bare(argv):
    """[exit code, whether mpmath was loaded] of a run under -S, with
    mpmath's directory on sys.path, so an import would succeed."""
    mpmath_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("mpmath").origin))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _BARE, _SRC, mpmath_dir, json.dumps(argv)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


# one argv per shape of the spectral-float jobs: the kernels run on
# decimal.Decimal, and a wide number is written from its Decimal
@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "5"], 0, id="spectrum"),
        pytest.param(["spectrum", "--N", "2", "--q", "0.2", "--alpha-max", "700"], 0,
                     id="spectrum-wide"),
        pytest.param(["fusion", "--N", "2", "--q", "0.5", "--alpha-max", "4"], 0, id="fusion-grid"),
        pytest.param(["fusion", "--N", "2", "--q", "0.5", "--alpha", "3", "--beta", "4"], 0,
                     id="fusion-pair"),
        pytest.param(["hs-cert", "--N", "2", "--q", "0.5", "--t", "0.5", "--alpha-max", "40"], 0,
                     id="hs-cert-decimal"),
        pytest.param(["hs-cert", "--N", "3", "--q", "0.381966011250", "--t", "0",
                      "--alpha-max", "100"], 0, id="hs-cert-kac"),
        pytest.param(["hs-cert", "--N", "2", "--q", "1/2", "--t", "0.5", "--alpha-max", "40"], 0,
                     id="hs-cert-rational"),
        pytest.param(["amenability", "--N", "2", "--q", "0.5", "--n-max", "2000", "--warmup",
                      "100"], 1, id="amenability-decimal"),
        pytest.param(["amenability", "--N", "2", "--q", "1.0", "--n-max", "2000000"], 0,
                     id="amenability-free"),
        pytest.param(["spectrum", "--N", "2", "--q", "1e-400", "--alpha-max", "5"], 2,
                     id="tiny-q"),
    ],
)
def test_spectral_float_slots_leave_mpmath_unloaded(argv, code):
    assert _bare(argv) == [code, False]


_PRECISION = """
import json, sys
from fractions import Fraction
if sys.argv[1] == "eager":
    import mpmath
elif sys.argv[1] == "blocked":
    sys.modules["mpmath"] = None  # any import of mpmath raises ImportError
from qgs import QParameter, eigenvalue
q = QParameter("0." + "3" * 100, 2).q
delta = eigenvalue(QParameter("0.3", 2), 50)
exact = eigenvalue(QParameter(Fraction(1, 2), 2), 300)
print(json.dumps([str(q), [type(x).__name__ for x in (delta, exact)], str(delta), str(exact)]))
"""


def test_lazy_mpmath_computes_at_the_working_precision(monkeypatch):
    # mpmath loaded first, never loaded, or unimportable: the same numbers at the width
    monkeypatch.setenv("QGS_PRECISION_BITS", "256")
    lazy, eager, blocked = (_fresh(_PRECISION, order) for order in ("lazy", "eager", "blocked"))
    assert lazy == eager == blocked
    q, kinds, delta, exact = lazy
    assert len(Decimal(q).as_tuple().digits) == _context(256).prec  # q at 256 bits, not 53 nor 128
    assert kinds == ["Decimal", "Fraction"]
    assert len(Decimal(delta).as_tuple().digits) == _context(256).prec  # not 28, nor 41
    assert Fraction(exact) == closed_form_eigenvalue(Fraction(1, 2), 300)


# every public numeric function at decimal q, under -S with mpmath importable
_PUBLIC = """
import sys
sys.path[:0] = sys.argv[1:3]
import json
from itertools import islice
from qgs import (QParameter, dims, dirichlet_form, eigenvalue, fusion_check, fusion_grid,
                 fusion_isometry, gap, gap_limit, hs_coefficient, multiplier, q_number,
                 resolvent_coeff, semigroup_coeff, semigroup_rate, spectral_data, spectral_rows,
                 spectral_stream)
p = QParameter("0.3", 2)
values = [
    eigenvalue(p, 7), next(islice(spectral_stream(p), 7, None)).delta,
    spectral_data(p, 7)[-1].delta, *spectral_rows(p, 7)[-1][2:], dims(p, 7).qdim[-1],
    *fusion_check(p, 2, 3)[6:8], *fusion_grid(p, 3)[-1][6:8], q_number(5, p),
    *gap(p, 5, 7, 1)[3:5], *hs_coefficient(p, 5, 7, 1, 0.5)[4:],
    *fusion_isometry(p, 2, 2, 2).coefficients.values(), QParameter.kac(3).q0, gap_limit(p),
    semigroup_coeff(p, 3, 0.5), semigroup_rate(p, 3), multiplier(p, 3, 0.5),
    *resolvent_coeff(p, 3, 0.5)[2:], dirichlet_form(p, {(1, 1, 1): 0.5}),
]
print(json.dumps([sorted({type(x).__name__ for x in values}), "mpmath" in sys.modules]))
"""


def test_public_numbers_at_decimal_q_are_decimals_without_mpmath():
    mpmath_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("mpmath").origin))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PUBLIC, _SRC, mpmath_dir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout) == [["Decimal"], False]


_NO_THIRD_PARTY = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy or mpmath raises ImportError
sys.modules["mpmath"] = None
import qgs
from qgs import templieb
unresolved = [name for name in qgs.__all__ if getattr(qgs, name, None) is None]
p = qgs.QParameter("0.3", 2)
runs = {
    "commutator_estimate": templieb.commutator_estimate(p, 3, 1, 1, 1, 1).passed,
    "commutator_suite": len(templieb.commutator_suite(p, range(4))),
    "fusion_isometry": len(templieb.fusion_isometry(p, 3, 2, 1).coefficients),
    "jw_report": templieb.jw_report(p, 6)[-1].n,
    "pentagon_bound": templieb.pentagon_bound(p, 3, 1, 1),
    "pentagon_defect": templieb.pentagon_defect(p, 3, 1, 1, -1, 1),
}
print(json.dumps([len(qgs.__all__), unresolved, runs]))
"""


def test_public_names_resolve_and_templieb_runs_with_numpy_and_mpmath_blocked():
    count, unresolved, runs = _fresh(_NO_THIRD_PARTY)
    assert count == len(qgs.__all__) and unresolved == []
    assert sorted(runs) == sorted(qgs._EXPORTS["templieb"])
    assert runs["commutator_estimate"] is True and runs["commutator_suite"] == 1 + 3 + 4 + 4
    assert runs["fusion_isometry"] == 6 and runs["jw_report"] == 6
    assert runs["pentagon_bound"] == pytest.approx(0.3 ** 3)
    assert 0 < runs["pentagon_defect"] <= 2 * runs["pentagon_bound"]


_BLOCKED = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy raises ImportError
import qgs.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = qgs.cli.main(["jw-verify", "--q", "0.3", "--n-max", "14"])
print(json.dumps([code, out.getvalue()]))
"""


def test_jw_verify_runs_with_numpy_blocked():
    blocked, free = (_fresh(_BLOCKED, mode) for mode in ("blocked", "free"))
    assert blocked[0] == 0
    assert blocked == free
    assert json.loads(blocked[1])["verdict"] == "pass"


def _readme_examples():
    """The argv of each `qgs` line in README's Examples block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("qgs ")]


_NO_MPMATH = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["mpmath"] = None  # any import of mpmath raises ImportError
from itertools import islice
import qgs.cli
from qgs import (QParameter, dims, dirichlet_form, eigenvalue, fusion_check, fusion_grid,
                 fusion_isometry, gap, gap_limit, hs_coefficient, multiplier, q_number,
                 resolvent_coeff, semigroup_coeff, semigroup_rate, spectral_data, spectral_rows,
                 spectral_stream)
out = []
for argv in json.loads(sys.argv[2]):
    argv = [a for a in argv if a not in ("--format", "csv")]
    for fmt in ("json", "csv"):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = qgs.cli.main([*argv, "--format", fmt])
        out.append([argv, fmt, code, text.getvalue()])
p = QParameter("0.3", 2)
out.append([str(x) for x in (
    eigenvalue(p, 7), next(islice(spectral_stream(p), 7, None)).delta,
    spectral_data(p, 7)[-1].delta, *spectral_rows(p, 7)[-1][2:], dims(p, 7).qdim[-1],
    *fusion_check(p, 2, 3)[6:8], *fusion_grid(p, 3)[-1][6:8], q_number(5, p),
    *gap(p, 5, 7, 1)[3:5], *hs_coefficient(p, 5, 7, 1, 0.5)[4:],
    *fusion_isometry(p, 2, 2, 2).coefficients.values(), QParameter.kac(3).q0, gap_limit(p),
    semigroup_coeff(p, 3, 0.5), semigroup_rate(p, 3), multiplier(p, 3, 0.5),
    *resolvent_coeff(p, 3, 0.5)[2:], dirichlet_form(p, {(1, 1, 1): 0.5}))])
for text in ("1/3", " 0.5 ", "inf", "1e-500", "1e500", "0.5_0"):
    try:
        out.append(repr(QParameter(text, 2)))
    except ValueError as exc:
        out.append(str(exc))
out.append([repr(p.q), str(p.q), repr(p.q + p.q)])
print(json.dumps([out, sys.modules.get("mpmath", False) is not False]))
"""


def test_the_package_runs_with_mpmath_unimportable():
    # the README's CLI examples, the Decimal results, the q reader and a held
    # decimal q, byte for byte as in a run that could import mpmath and did not
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert "\ndependencies = []\n" in pyproject  # mpmath is in the test extra alone
    examples = json.dumps(_readme_examples())
    (blocked, _), (free, loaded) = (_fresh(_NO_MPMATH, mode, examples)
                                    for mode in ("blocked", "free"))
    assert blocked == free and not loaded
    runs = [run for run in free if isinstance(run, list) and len(run) == 4]
    assert len(runs) == 2 * len(_readme_examples()) >= 14
    assert all(code == 0 and text for _, _, code, text in runs)
    assert free[-7:] == [
        "QParameter(q=Fraction(1, 3), N=2)", "QParameter(q=Decimal('0.5'), N=2)",
        "q must lie in (0, 1]", "q = 1e-500 is too small: q + 1/q exceeds the double range",
        "q must lie in (0, 1]", "could not convert string to float: '0.5_0'",
        ["Decimal('0.3')", "0.3", "Decimal('0.6')"],
    ]


def test_every_public_name_is_its_submodules_object():
    for module, names in qgs._EXPORTS.items():
        sub = importlib.import_module(f"qgs.{module}")
        for name in names:
            assert getattr(qgs, name) is getattr(sub, name), name
    assert sorted(qgs.__all__) == sorted([*qgs._OWNER, "__version__"])
    assert len(set(qgs.__all__)) == len(qgs.__all__)


def test_submodule_read_as_an_attribute_is_the_imported_module(monkeypatch):
    monkeypatch.delattr(qgs, "fusion", raising=False)
    assert qgs.fusion is sys.modules["qgs.fusion"]


def test_unreached_tool_fails_when_a_line_is_unreached():
    # one test reaches little of src/qgs, so the tool lists lines and exits 1
    root = Path(__file__).resolve().parents[1]
    node = f"{root / 'tests' / 'test_package.py'}::test_unknown_name_is_an_attribute_error"
    done = subprocess.run([sys.executable, str(root / "tools" / "unreached.py"), node],
                          capture_output=True, text=True, cwd=root)
    assert done.returncode == 1
    listing = [line for line in done.stdout.splitlines() if line.startswith("src/qgs/")]
    assert listing
    assert re.search(r"^[1-9]\d* executable lines in src/qgs never ran$", done.stdout, re.M)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qgs.no_such_name  # noqa: B018
    assert not hasattr(qgs, "no_such_name")


def test_dir_lists_all():
    assert set(qgs.__all__) <= set(dir(qgs))


_SURFACE = """
import json, sys
import qgs
bare = sorted(m for m in sys.modules if m.startswith("qgs."))
tl = qgs.templieb.__name__
star = {}
exec("from qgs import *", star)
print(json.dumps([bare, tl, sorted(n for n in qgs.__all__ if n not in star)]))
"""


def test_fresh_package_is_lazy_and_star_import_binds_all():
    bare, templieb, missing = _fresh(_SURFACE)
    assert bare == []
    assert templieb == "qgs.templieb"
    assert missing == []


def test_readme_ceiling_table_names_every_ceiling():
    # each MAX_* constant of the package has its `module.NAME` row in the
    # README's ceiling table, and each row names a constant that exists
    package = Path(qgs.__file__).resolve().parent
    defined = {
        f"{path.stem}.{name}"
        for path in package.glob("*.py")
        for name in re.findall(r"^(MAX_\w+) =", path.read_text(encoding="utf-8"), re.M)
    }
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `(\w+\.MAX_\w+)` =", readme.read_text(encoding="utf-8"), re.M)
    assert len(rows) == len(set(rows))
    assert set(rows) == defined


def test_layer_bench_writes_every_layer(tmp_path):
    # a smoke run of the layer bench: one run per layer at tiny sizes
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "layers.json"
    subprocess.run([sys.executable, str(root / "tools" / "bench_layers.py"), "--k", "1", "--tiny",
                    "--out", str(out)], capture_output=True, text=True, check=True, timeout=300)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert {"commit", "src_modified", "python", "machine", "nproc", "k", "sizes", "src_lines",
            "layers", "loadavg"} <= set(record)
    assert (record["k"], record["sizes"]) == (1, "tiny")
    modules = sorted(p.name for p in (root / "src" / "qgs").glob("*.py"))
    assert sorted(record["src_lines"]) == sorted([*modules, "total"])
    layers = record["layers"]
    for name in ("spectrum._deltas.decimal", "spectrum._deltas.rational", "fusion.dims.decimal",
                 "fusion.dims.rational", "spectrum.spectral_rows.decimal",
                 "estimates.hs_certificate", "cli._num.decimal", "cli._num.fraction",
                 "cli._num.fraction_2^2000", "cli.build_parser+parse_args",
                 "chebyshev.QParameter", "templieb._tables",
                 "templieb._closed_form", "freewords._verify", "freewords._verify.meeting",
                 "estimates._FloatCells.decimal",
                 "estimates._ExactCells.rational", "fusion._fusion_checks",
                 "cli._row+_emit.fusion",
                 "freewords.expansion_sweep", "cli._row+_emit.freeprod",
                 *(f"compile.{m[:-3]}" for m in modules)):
        row = layers[name]
        assert 0 <= row["best_s"] <= row["median_s"] <= row["worst_s"]
        assert row["spread"] >= 0


def test_layer_bench_compares_two_runs(tmp_path):
    # --compare against a first tiny run prints one ratio per layer of both
    root = Path(__file__).resolve().parents[1]
    bench = [sys.executable, str(root / "tools" / "bench_layers.py"), "--k", "1", "--tiny"]
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    subprocess.run([*bench, "--out", str(old)], capture_output=True, check=True, timeout=300)
    done = subprocess.run([*bench, "--out", str(new), "--compare", str(old)],
                          capture_output=True, text=True, check=True, timeout=300)
    layers = json.loads(new.read_text(encoding="utf-8"))["layers"]
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == list(layers)
    assert all(re.search(r" x *\d+\.\d{3}(  (slower|faster))?$", line) for line in lines)
    # a change is marked only where the ratio lies outside both runs' spreads
    spec = importlib.util.spec_from_file_location("bench_layers", root / "tools" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def record(best, spread):
        return {"layers": {"a": {"best_s": best, "spread": spread}}}

    def mark(old, new):
        (line,) = module._compare(record(*old), record(*new))
        return line.split("x", 1)[1].split()[1:]

    assert mark((1.0, 0.3), (1.2, 0.1)) == []  # within the old run's spread
    assert mark((1.0, 0.1), (1.2, 0.3)) == []  # within the new run's
    assert mark((1.0, 0.1), (1.2, 0.1)) == ["slower"]
    assert mark((1.2, 0.1), (1.0, 0.1)) == ["faster"]
