"""The lazy `qgs` package surface, and the modules each subcommand imports.

A run should import only what its subcommand calls: numpy only for
jw-verify, whose projections live on the qubit chain, and mpmath only for
decimal q, hs-cert and the Temperley-Lieb suites (jw-verify, lemma65,
pentagon): spectrum, fusion, gap-scan and amenability at rational q stay
exact and never load it, nor does freeprod-verify.  Each check runs in a
fresh interpreter, since this process has imported everything already; it
asserts module names, not times.  The README's ceiling table is checked
against the MAX_* constants the package defines.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qgs
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


@pytest.mark.parametrize("q", ["0.5", "1/2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--N", "2", "--alpha-max", "5"],
        ["gap-scan", "--N", "2", "--alpha-max", "12", "--gamma-max", "1"],
        ["amenability", "--N", "2", "--n-max", "2000", "--warmup", "100"],
        ["lemma65", "--alpha-max", "4"],
        ["pentagon", "--alpha", "4", "--r", "2", "--s", "1", "--k", "-1", "--l", "0"],
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
        *(argv + ["--q", "0.5"] for argv in _EXACT_ROUTE),
        ["hs-cert", "--N", "2", "--q", "1/2", "--t", "0.5", "--alpha-max", "40"],
    ],
)
def test_decimal_q_and_hs_cert_load_mpmath(argv):
    assert "mpmath" in _loaded(argv)


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


def test_temperley_lieb_suite_loads_numpy():
    # the probe sees an import at all
    assert "numpy" in _loaded(["jw-verify", "--q", "0.5", "--n-max", "3"])


def test_every_public_name_is_its_submodules_object():
    for module, names in qgs._EXPORTS.items():
        sub = importlib.import_module(f"qgs.{module}")
        for name in names:
            assert getattr(qgs, name) is getattr(sub, name), name
    assert sorted(qgs.__all__) == sorted([*qgs._OWNER, "__version__"])
    assert len(set(qgs.__all__)) == len(qgs.__all__)


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
