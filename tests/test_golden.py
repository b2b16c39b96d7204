"""Golden `gap-scan` records: the CLI output must stay byte-identical.

Each file under ``golden/gap_scan`` is the JSON record an earlier route
wrote for the arguments listed here: the mpmath recurrence (precision
raised to resolve q^(2*alpha_max)) for the decimal-q files and q = 4/11,
and the closed form in Fractions for q = 1/12, 6/11 and 11/12.  The current
routes must reproduce every byte, including the exit code, at q close to 1
where the four-term gap sum cancels hardest.
"""

from pathlib import Path

import pytest

from qgs.cli import main

GOLDEN = Path(__file__).parent / "golden" / "gap_scan"

# name -> (arguments after "gap-scan", exit code)
CASES = {
    "readme_q0.5_200x5": (["--q", "0.5", "--alpha-max", "200", "--gamma-max", "5"], 0),
    "readme_q0.5_200x5_bits256": (
        ["--q", "0.5", "--alpha-max", "200", "--gamma-max", "5",
         "--precision-bits", "256"],
        0,
    ),
    "q0.05_80x3": (["--q", "0.05", "--alpha-max", "80", "--gamma-max", "3"], 0),
    "q0.3_80x3": (["--q", "0.3", "--alpha-max", "80", "--gamma-max", "3"], 0),
    "q0.7_80x3": (["--q", "0.7", "--alpha-max", "80", "--gamma-max", "3"], 0),
    "q0.9_80x3": (["--q", "0.9", "--alpha-max", "80", "--gamma-max", "3"], 1),
    "q0.95_80x3": (["--q", "0.95", "--alpha-max", "80", "--gamma-max", "3"], 1),
    "q0.97_80x3": (["--q", "0.97", "--alpha-max", "80", "--gamma-max", "3"], 1),
    "q0.99_80x3": (["--q", "0.99", "--alpha-max", "80", "--gamma-max", "3"], 1),
    "q4-11_200x5": (["--q", "4/11", "--alpha-max", "200", "--gamma-max", "5"], 0),
    "q1-12_120x4": (["--q", "1/12", "--alpha-max", "120", "--gamma-max", "4"], 0),
    "q6-11_200x5": (["--q", "6/11", "--alpha-max", "200", "--gamma-max", "5"], 0),
    "q11-12_200x5": (["--q", "11/12", "--alpha-max", "200", "--gamma-max", "5"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gap_scan_golden_record(name, capsys):
    args, want_code = CASES[name]
    code = main(["gap-scan", "--N", "2"] + args)
    out = capsys.readouterr().out
    assert code == want_code
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
