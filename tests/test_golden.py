"""Golden CLI records: what each subcommand writes must not drift.

Each case runs ``qgs.cli.main`` and compares what it wrote (stdout, then
stderr) and its exit code with ``golden/<suite>/<name>.<format>``, where
the format is ``csv`` when the arguments ask for it and ``json``
otherwise.  A record above 50 KB is stored as ``<name>.<format>.sha256``,
the SHA-256 of its UTF-8 bytes.

The gap-scan records of decimal q and of q = 4/11 were written by the
mpmath recurrence, those of q = 1/12, 6/11 and 11/12 by the closed form in
Fractions, and that of q = 0.99999 while the float tables still summed
B(n) term by term near q = 1.  Every other record was written by the CLI
before its handlers shared one record builder, except those for numbers
beyond the double range and for negative grid sizes, which were rewritten
when those stopped ending in ``Infinity``, a traceback or an empty pass,
and those at 256 bits for amenability at q = 0.381966 and fusion at
q = 0.2, which were written before the Chebyshev recurrence moved into
one generator, and those of ``lemma65`` and ``pentagon``, rewritten when their
fusion coefficients came from the closed form in mpmath alone; their
defects on coincident routes, roundoff of an exact zero, were rewritten
again when the kernels moved to decimal.Decimal.  Those of ``jw-verify``
were rewritten when its checks moved from a dense numpy route (whose
residuals near 1e-15 depended on the BLAS build) to sums within weight
sectors.  Every record is compared byte for byte.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qgs.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _gap(*args):
    return ["gap-scan", "--N", "2", *args]


# name -> (argv, exit code)
CASES = {
    "readme_q0.5_200x5": (_gap("--q", "0.5", "--alpha-max", "200", "--gamma-max", "5"), 0),
    "readme_q0.5_200x5_bits256": (
        _gap("--q", "0.5", "--alpha-max", "200", "--gamma-max", "5",
             "--precision-bits", "256"),
        0,
    ),
    "q0.05_80x3": (_gap("--q", "0.05", "--alpha-max", "80", "--gamma-max", "3"), 0),
    "q0.3_80x3": (_gap("--q", "0.3", "--alpha-max", "80", "--gamma-max", "3"), 0),
    "q0.7_80x3": (_gap("--q", "0.7", "--alpha-max", "80", "--gamma-max", "3"), 0),
    "q0.9_80x3": (_gap("--q", "0.9", "--alpha-max", "80", "--gamma-max", "3"), 1),
    "q0.95_80x3": (_gap("--q", "0.95", "--alpha-max", "80", "--gamma-max", "3"), 1),
    "q0.97_80x3": (_gap("--q", "0.97", "--alpha-max", "80", "--gamma-max", "3"), 1),
    "q0.99_80x3": (_gap("--q", "0.99", "--alpha-max", "80", "--gamma-max", "3"), 1),
    "q0.99999_2000x3": (_gap("--q", "0.99999", "--alpha-max", "2000", "--gamma-max", "3"), 1),
    "q4-11_200x5": (_gap("--q", "4/11", "--alpha-max", "200", "--gamma-max", "5"), 0),
    "q1-12_120x4": (_gap("--q", "1/12", "--alpha-max", "120", "--gamma-max", "4"), 0),
    "q6-11_200x5": (_gap("--q", "6/11", "--alpha-max", "200", "--gamma-max", "5"), 0),
    "q11-12_200x5": (_gap("--q", "11/12", "--alpha-max", "200", "--gamma-max", "5"), 0),
    "q0.5_40x3_csv": (
        _gap("--q", "0.5", "--alpha-max", "40", "--gamma-max", "3", "--format", "csv"), 0,
    ),
    "q4-11_40x3_csv": (
        _gap("--q", "4/11", "--alpha-max", "40", "--gamma-max", "3", "--format", "csv"), 0,
    ),
    # README examples not covered above
    "spectrum_readme_q0.5_100_csv": (
        ["spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "100", "--format", "csv"], 0,
    ),
    "hs_cert_readme_q0.381966": (
        ["hs-cert", "--N", "3", "--q", "0.381966", "--t", "0", "--alpha-max", "200"], 0,
    ),
    "pentagon_readme_q0.5": (
        ["pentagon", "--q", "0.5", "--alpha", "3", "--r", "1", "--s", "1",
         "--k", "1", "--l", "1"],
        0,
    ),
    "freeprod_readme_433": (
        ["freeprod-verify", "--max-x", "4", "--max-side", "3", "--algebras", "3"], 0,
    ),
    "amenability_readme_q1": (
        ["amenability", "--N", "2", "--q", "1", "--n-max", "1000000"], 0,
    ),
    # each subcommand in both formats, at decimal and at rational q
    "spectrum_q0.5_100": (
        ["spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "100"], 0,
    ),
    "spectrum_q3-7_40": (["spectrum", "--N", "2", "--q", "3/7", "--alpha-max", "40"], 0),
    "spectrum_q3-7_40_csv": (
        ["spectrum", "--N", "2", "--q", "3/7", "--alpha-max", "40", "--format", "csv"], 0,
    ),
    "spectrum_q1_12_bits256": (
        ["spectrum", "--N", "2", "--q", "1", "--alpha-max", "12", "--precision-bits", "256"],
        0,
    ),
    "spectrum_q0.381966_N3_30_bits256": (
        ["spectrum", "--N", "3", "--q", "0.381966", "--alpha-max", "30",
         "--precision-bits", "256"],
        0,
    ),
    "spectrum_q0.01_160": (["spectrum", "--N", "2", "--q", "0.01", "--alpha-max", "160"], 0),
    "spectrum_q1-100_160": (
        ["spectrum", "--N", "2", "--q", "1/100", "--alpha-max", "160"], 0,
    ),
    "spectrum_q0.01_160_csv": (
        ["spectrum", "--N", "2", "--q", "0.01", "--alpha-max", "160", "--format", "csv"], 0,
    ),
    "fusion_q0.5_6": (["fusion", "--N", "2", "--q", "0.5", "--alpha-max", "6"], 0),
    "fusion_q0.5_6_csv": (
        ["fusion", "--N", "2", "--q", "0.5", "--alpha-max", "6", "--format", "csv"], 0,
    ),
    "fusion_q1-3_N3_6": (["fusion", "--N", "3", "--q", "1/3", "--alpha-max", "6"], 0),
    "fusion_q1-3_N3_6_csv": (
        ["fusion", "--N", "3", "--q", "1/3", "--alpha-max", "6", "--format", "csv"], 0,
    ),
    "fusion_q1_3x4_csv": (
        ["fusion", "--N", "2", "--q", "1", "--alpha", "3", "--beta", "4", "--format", "csv"],
        0,
    ),
    "fusion_q0.01_90x90": (
        ["fusion", "--N", "2", "--q", "0.01", "--alpha", "90", "--beta", "90"], 0,
    ),
    "fusion_q1-100_90x90_csv": (
        ["fusion", "--N", "2", "--q", "1/100", "--alpha", "90", "--beta", "90",
         "--format", "csv"],
        0,
    ),
    "fusion_q0.5_negative_alpha_max": (
        ["fusion", "--N", "2", "--q", "0.5", "--alpha-max", "-1"], 2,
    ),
    "fusion_q0.5_negative_alpha_max_csv": (
        ["fusion", "--N", "2", "--q", "0.5", "--alpha-max", "-1", "--format", "csv"], 2,
    ),
    "hs_cert_q0.381966_csv": (
        ["hs-cert", "--N", "3", "--q", "0.381966", "--t", "0", "--alpha-max", "200",
         "--format", "csv"],
        0,
    ),
    "hs_cert_q1-4_t0.5": (
        ["hs-cert", "--N", "3", "--q", "1/4", "--t", "0.5", "--alpha-max", "60"], 0,
    ),
    "hs_cert_q1-4_t0.5_csv": (
        ["hs-cert", "--N", "3", "--q", "1/4", "--t", "0.5", "--alpha-max", "60",
         "--format", "csv"],
        0,
    ),
    # hs-cert reads only the integer dimensions; this record was written while
    # it still built the q-dimension table too (11 s at q = 1/10^150)
    "hs_cert_q1-1e150_t0.5_400_csv": (
        ["hs-cert", "--N", "2", "--q", "1/1" + "0" * 150, "--t", "0.5", "--alpha-max", "400",
         "--format", "csv"],
        0,
    ),
    "jw_verify_q0.5_6": (["jw-verify", "--q", "0.5", "--n-max", "6"], 0),
    "jw_verify_q0.5_6_csv": (["jw-verify", "--q", "0.5", "--n-max", "6", "--format", "csv"], 0),
    "jw_verify_q1-3_6": (["jw-verify", "--q", "1/3", "--n-max", "6"], 0),
    "jw_verify_q1-3_6_csv": (
        ["jw-verify", "--q", "1/3", "--n-max", "6", "--format", "csv"], 0,
    ),
    "pentagon_readme_q0.5_csv": (
        ["pentagon", "--q", "0.5", "--alpha", "3", "--r", "1", "--s", "1",
         "--k", "1", "--l", "1", "--format", "csv"],
        0,
    ),
    "pentagon_q1-2_mixed": (
        ["pentagon", "--q", "1/2", "--alpha", "4", "--r", "1", "--s", "1",
         "--k", "-1", "--l", "1"],
        0,
    ),
    "pentagon_q1-2_mixed_csv": (
        ["pentagon", "--q", "1/2", "--alpha", "4", "--r", "1", "--s", "1",
         "--k", "-1", "--l", "1", "--format", "csv"],
        0,
    ),
    "lemma65_q0.5_2-4": (
        ["lemma65", "--q", "0.5", "--alpha-min", "2", "--alpha-max", "4"], 0,
    ),
    "lemma65_q0.5_2-4_csv": (
        ["lemma65", "--q", "0.5", "--alpha-min", "2", "--alpha-max", "4", "--format", "csv"],
        0,
    ),
    "lemma65_q2-5_1-4": (
        ["lemma65", "--q", "2/5", "--alpha-min", "1", "--alpha-max", "4"], 0,
    ),
    "lemma65_q2-5_1-4_csv": (
        ["lemma65", "--q", "2/5", "--alpha-min", "1", "--alpha-max", "4", "--format", "csv"],
        0,
    ),
    "freeprod_221_csv": (
        ["freeprod-verify", "--max-x", "2", "--max-side", "1", "--algebras", "2",
         "--format", "csv"],
        0,
    ),
    "freeprod_negative_max_x_csv": (
        ["freeprod-verify", "--max-x", "-1", "--format", "csv"], 2,
    ),
    "freeprod_single": (
        ["freeprod-verify", "--b", "0,1", "--x", "1,0,1", "--a", "1,0"], 0,
    ),
    "freeprod_single_csv": (
        ["freeprod-verify", "--b", "0,1", "--x", "1,0,1", "--a", "1,0", "--format", "csv"], 0,
    ),
    "amenability_q1_csv": (
        ["amenability", "--N", "2", "--q", "1", "--n-max", "1000000", "--format", "csv"], 0,
    ),
    "amenability_q0.381966_N3": (
        ["amenability", "--N", "3", "--q", "0.381966", "--n-max", "20000"], 1,
    ),
    "amenability_q1-3_N3_csv": (
        ["amenability", "--N", "3", "--q", "1/3", "--n-max", "20000", "--format", "csv"], 1,
    ),
    # raised precision: the closed-form eigenvalues' guard bits and the qdim column of dims
    "amenability_q0.381966_N3_1e6_bits256": (
        ["amenability", "--N", "3", "--q", "0.381966", "--n-max", "1000000",
         "--precision-bits", "256"],
        1,
    ),
    "amenability_q0.381966_N3_1e6_bits256_csv": (
        ["amenability", "--N", "3", "--q", "0.381966", "--n-max", "1000000",
         "--precision-bits", "256", "--format", "csv"],
        1,
    ),
    "fusion_q0.2_N3_8_bits256": (
        ["fusion", "--N", "3", "--q", "0.2", "--alpha-max", "8", "--precision-bits", "256"], 0,
    ),
    "fusion_q0.2_N3_8_bits256_csv": (
        ["fusion", "--N", "3", "--q", "0.2", "--alpha-max", "8", "--precision-bits", "256",
         "--format", "csv"],
        0,
    ),
    "cesaro_x": (["cesaro", "--poly", "x", "--k", "20000"], 0),
    "cesaro_exp2x_csv": (["cesaro", "--poly", "exp2x", "--k", "1000", "--format", "csv"], 0),
}


def golden_path(name):
    argv, _ = CASES[name]
    fmt = "csv" if "csv" in argv else "json"
    return GOLDEN / argv[0].replace("-", "_") / f"{name}.{fmt}"


def check_golden(name, capsys):
    argv, want_code = CASES[name]
    code = main(list(argv))
    captured = capsys.readouterr()
    got = captured.out + captured.err
    assert code == want_code
    path = golden_path(name)
    digest = path.with_name(path.name + ".sha256")
    if digest.exists():
        got_digest = hashlib.sha256(got.encode("utf-8")).hexdigest()
        assert got_digest == digest.read_text(encoding="ascii").strip()
        return
    assert got == path.read_bytes().decode("utf-8")


GAP_SCAN = sorted(name for name, (argv, _) in CASES.items() if argv[0] == "gap-scan")
OTHERS = sorted(name for name, (argv, _) in CASES.items() if argv[0] != "gap-scan")


@pytest.mark.parametrize("name", GAP_SCAN)
def test_gap_scan_golden_record(name, capsys):
    check_golden(name, capsys)


@pytest.mark.parametrize("name", OTHERS)
def test_cli_golden_record(name, capsys):
    check_golden(name, capsys)


def _not_strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_json_goldens_are_strict_json():
    # NaN and Infinity parse by default, though no strict JSON reader takes them
    paths = sorted(GOLDEN.rglob("*.json"))
    assert paths
    for path in paths:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_not_strict)
