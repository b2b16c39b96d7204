"""The lazy `qgs` package surface, and the modules each subcommand imports.

A run should import only what its subcommand calls.  No subcommand loads
numpy: jw-verify checks the projections one weight sector at a time in
floats, and only the library's qubit-chain objects (tl_rep, jones_wenzl's
basis and matrix, weight_matrix, an isometry's V) import it, which one
probe confirms.  mpmath is loaded only for spectrum, fusion and
amenability at decimal q, and for hs-cert: at rational q those stay exact
and never load it.  Nor do freeprod-verify, gap-scan at decimal q (its
cells are floats), and the Temperley-Lieb suites (jw-verify, lemma65,
pentagon) at either kind of q, which hold a decimal q as its exact binary
value and run their fusion kernels on decimal.Decimal; that probe runs
under -S.  The package's records are named tuples, so no
subcommand's default run (JSON to stdout), at rational or at decimal q,
loads dataclasses (which pulls in inspect, ast and dis), typing, pathlib
or csv; that probe runs under -S, with this qgs and mpmath's directory
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
from fractions import Fraction
from pathlib import Path

import pytest

import qgs
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
with contextlib.redirect_stdout(io.StringIO()):
    code = qgs.cli.main(json.loads(sys.argv[1]))
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


@pytest.mark.parametrize(
    "argv",
    [
        # gap-scan's slot holds hs-cert at decimal q: gap-scan leaves mpmath unloaded
        *(argv + ["--q", "0.5"] if argv[0] != "gap-scan"
          else ["hs-cert", "--N", "2", "--q", "0.5", "--t", "0.5", "--alpha-max", "40"]
          for argv in _EXACT_ROUTE),
        ["hs-cert", "--N", "2", "--q", "1/2", "--t", "0.5", "--alpha-max", "40"],
    ],
)
def test_decimal_q_and_hs_cert_load_mpmath(argv):
    assert "mpmath" in _loaded(argv)


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
    # under -S, with mpmath's directory on sys.path, so an import would succeed
    mpmath_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("mpmath").origin))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _BARE, _SRC, mpmath_dir, json.dumps(argv)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout) == [0, False]


_PRECISION = """
import json, sys
from fractions import Fraction
if sys.argv[1] == "eager":
    import mpmath
from qgs import QParameter, eigenvalue
q = QParameter("0.3", 2).q
delta = eigenvalue(QParameter("0.3", 2), 50)
exact = eigenvalue(QParameter(Fraction(1, 2), 2), 300)
print(json.dumps([[[str(x.man), x.exp, x.bc] for x in (q, delta)], type(exact).__name__,
                  str(exact)]))
"""


def test_lazy_mpmath_computes_at_the_working_precision(monkeypatch):
    monkeypatch.setenv("QGS_PRECISION_BITS", "256")
    lazy, eager = (_fresh(_PRECISION, order) for order in ("lazy", "eager"))
    assert lazy == eager
    mpfs, kind, exact = lazy
    assert all(128 < bc <= 256 for _, _, bc in mpfs)  # not mpmath's 53 bits, nor 128
    assert kind == "Fraction"
    assert Fraction(exact) == closed_form_eigenvalue(Fraction(1, 2), 300)


_CHAIN = """
import json, sys
from qgs import QParameter, tl_rep
tl_rep(QParameter("0.5", 2), 3).generator_matrix(1)
print(json.dumps("numpy" in sys.modules))
"""


def test_qubit_chain_objects_load_numpy():
    # the probe sees an import at all
    assert _fresh(_CHAIN) is True


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
