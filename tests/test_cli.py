"""Command-line front end: schemas, verdicts, exit codes, determinism."""

import csv
import io
import json
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from qgs import QParameter, freewords, fusion, spectrum, templieb
from qgs.cli import main
from qgs.errors import NumericalDegradationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_spectrum_csv_schema(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--N", "3", "--q", "0.3", "--alpha-max", "5",
        "--format", "csv",
    )
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ["alpha", "n", "qdim", "delta", "gap"]
    assert len(rows) == 6
    assert rows[0][0] == "0"
    assert rows[0][1] == "1"
    assert float(rows[0][3]) == 0.0
    nq = 0.3 + 1 / 0.3
    assert abs(float(rows[1][3]) - 1 / nq) < 1e-12


def test_spectrum_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--N", "2", "--q", "1", "--alpha-max", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "spectrum"
    assert payload["verdict"] == "pass"
    assert payload["inputs"]["q"] == "1"
    assert payload["rows"][1]["n"] == 2
    # q = 1, N = 2: delta_alpha = alpha*(alpha+2)/6
    assert abs(payload["rows"][3]["delta"] - 3 * 5 / 6) < 1e-12


def test_inadmissible_pair_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--N", "3", "--q", "0.5", "--alpha-max", "10",
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "usage"


def test_byte_identical_reruns(capsys):
    args = ("spectrum", "--N", "2", "--q", "0.7", "--alpha-max", "40")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_precision_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("QGS_PRECISION_BITS", "256")
    code, out, _ = run_cli(
        capsys, "spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "2",
        "--precision-bits", "64",
    )
    assert code == 0
    assert json.loads(out)["precision_bits"] == 64


def test_precision_env_visible(capsys, monkeypatch):
    monkeypatch.setenv("QGS_PRECISION_BITS", "256")
    code, out, _ = run_cli(
        capsys, "spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "2",
    )
    assert code == 0
    assert json.loads(out)["precision_bits"] == 256


def test_fusion_single_cell(capsys):
    code, out, _ = run_cli(
        capsys, "fusion", "--N", "2", "--q", "1", "--alpha", "3", "--beta", "4",
        "--format", "csv",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:3] == ["alpha", "beta", "channels"]
    assert len(rows) == 1
    assert rows[0][2] == "1;3;5;7"
    assert rows[0][3] == "20"
    assert rows[0][4] == "20"


def test_fusion_grid_passes(capsys):
    code, out, _ = run_cli(
        capsys, "fusion", "--N", "2", "--q", "0.5", "--alpha-max", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert len(payload["rows"]) == 7 * 8 // 2


def test_hs_cert_divergent_case(capsys):
    code, out, _ = run_cli(
        capsys, "hs-cert", "--N", "3", "--q", "0.381966", "--t", "0",
        "--alpha-max", "200",
    )
    payload = json.loads(out)
    assert payload["verdict"] == "divergent"
    assert code == 0


def test_hs_cert_finite_case(capsys):
    code, out, _ = run_cli(
        capsys, "hs-cert", "--N", "3", "--q", "0.25", "--t", "0",
        "--alpha-max", "200",
    )
    payload = json.loads(out)
    assert payload["verdict"] == "finite"
    assert code == 0


def test_gap_scan_stable(capsys):
    code, out, _ = run_cli(
        capsys, "gap-scan", "--N", "2", "--q", "0.5", "--alpha-max", "40",
        "--gamma-max", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "finite"
    assert payload["result"]["stable"] is True
    assert payload["result"]["sup_ratio"] > 0


def test_jw_verify_rows(capsys):
    code, out, _ = run_cli(
        capsys, "jw-verify", "--q", "0.5", "--n-max", "6", "--format", "csv",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "n", "rank", "idempotency", "annihilation", "trace_error",
        "trace_rel_error", "ok",
    ]
    assert len(rows) == 6
    assert all(r[-1] == "true" for r in rows)


def test_jw_verify_small_q_judges_relative_trace_error(capsys):
    # [n+1]_q grows like q^-n: at q = 0.1 and n = 13 the absolute trace error
    # exceeds 1e-8 while the relative one stays near 1e-15
    code, out, _ = run_cli(capsys, "jw-verify", "--q", "0.1", "--n-max", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    last = payload["rows"][-1]
    assert last["trace_error"] > 1e-8
    assert last["trace_rel_error"] < 1e-13


def test_jw_verify_tiny_q_has_no_nan(capsys):
    # q^-n overflows a double from n = 11 on at q = 1e-30
    code, out, _ = run_cli(
        capsys, "jw-verify", "--q", "1e-30", "--n-max", "12", "--format", "csv",
    )
    assert code == 0
    assert "nan" not in out
    header, rows = parse_csv(out)
    assert len(rows) == 12
    assert all(r[-1] == "true" for r in rows)


@pytest.mark.parametrize("q", ["1", "1.0"])
def test_gap_scan_at_q_one_is_usage_error(capsys, q):
    # the power bound vanishes at q = 1, so there is nothing to scan
    code, out, err = run_cli(
        capsys, "gap-scan", "--N", "2", "--q", q, "--alpha-max", "30", "--gamma-max", "3",
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert "q = 1" in error["message"]


def test_gap_scan_at_decimal_q_rounding_to_one_is_usage_error(capsys):
    # q < 1 at the working width, but the float cells would divide by 1 - 1.0
    code, out, err = run_cli(
        capsys, "gap-scan", "--N", "2", "--q", "0.99999999999999999",
        "--alpha-max", "10", "--gamma-max", "2",
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert "rounds to 1.0" in error["message"]


@pytest.mark.parametrize("q", ["1e-70", "1/1" + "0" * 70])
def test_gap_ratio_beyond_double_range_is_usage_error(capsys, q):
    # the sup ratio is about q^-5 / 6, which no finite float holds
    code, out, err = run_cli(
        capsys, "gap-scan", "--N", "2", "--q", q, "--alpha-max", "10", "--gamma-max", "4",
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert "(0, 8, 4)" in error["message"]


def test_pentagon_documented_point(capsys):
    code, out, _ = run_cli(
        capsys, "pentagon", "--q", "0.5", "--alpha", "3", "--r", "1",
        "--s", "1", "--k", "1", "--l", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["result"]["bound"] == 0.125
    assert payload["result"]["defect"] <= 1e-10


def test_pentagon_mixed_routes(capsys):
    code, out, _ = run_cli(
        capsys, "pentagon", "--q", "0.5", "--alpha", "4", "--r", "1",
        "--s", "1", "--k", "-1", "--l", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["defect"] > 1e-6
    assert payload["result"]["ratio"] <= 2


def _unformed(*args):
    raise AssertionError("a coefficient was formed")


def test_pentagon_resource_limit(capsys, monkeypatch):
    # the work ceiling refuses before any coefficient is formed (q^1000 is a
    # normal double, so the reference is admissible)
    monkeypatch.setattr(templieb, "_closed_form", _unformed)
    code, out, err = run_cli(
        capsys, "pentagon", "--q", "0.5", "--alpha", "1000", "--r", "1",
        "--s", "1", "--k", "1", "--l", "1",
    )
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "resource"


@pytest.mark.parametrize(
    "argv",
    [
        # q^100 underflows; the defect alone would pass the work ceiling (exit 3)
        ("pentagon", "--q", "1e-300", "--alpha", "100", "--r", "1", "--s", "1",
         "--k", "1", "--l", "1"),
        ("pentagon", "--q", "0.5", "--alpha", "1000000000", "--r", "1", "--s", "1",
         "--k", "1", "--l", "1"),
        # q^11 underflows; alpha = 2-10 are admissible, and 486 passes the ceiling
        ("lemma65", "--q", "1e-30", "--alpha-max", "12"),
        ("lemma65", "--q", "1e-30", "--alpha-max", "1000000000"),
    ],
)
def test_reference_is_refused_before_any_coefficient(capsys, monkeypatch, argv):
    monkeypatch.setattr(templieb, "_closed_form", _unformed)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "usage"


def test_tiny_q_lemma65_stands_above_roundoff(capsys):
    # at alpha = 8, 9 the references q^alpha are 1e-16 and 1e-18: the float64
    # chain route read its 1e-16 roundoff there, ratios 2.2-8.9 against 2 and 6
    code, out, _ = run_cli(capsys, "lemma65", "--q", "0.01", "--alpha-max", "9")
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["passed"]
        if row["k"] != row["l"]:
            assert row["ratio"] == pytest.approx(0.9999, abs=1e-12)


@pytest.mark.parametrize("alpha", ["9", "40"])  # 11 and 42 sites
def test_tiny_q_pentagon_stands_above_roundoff(capsys, alpha):
    code, out, _ = run_cli(
        capsys, "pentagon", "--q", "0.01", "--alpha", alpha, "--r", "1", "--s", "1",
        "--k", "1", "--l", "-1",
    )
    assert code == 0
    assert json.loads(out)["result"]["ratio"] == pytest.approx(0.9999, abs=1e-12)


def test_pentagon_bad_shift_is_usage(capsys):
    code, _, err = run_cli(
        capsys, "pentagon", "--q", "0.5", "--alpha", "3", "--r", "1",
        "--s", "1", "--k", "2", "--l", "1",
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_lemma65_suite(capsys):
    code, out, _ = run_cli(
        capsys, "lemma65", "--q", "0.5", "--alpha-min", "2", "--alpha-max", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert len(payload["rows"]) == 12
    complementary = [r for r in payload["rows"] if r["k"] == -1 and r["l"] == -1]
    assert complementary and all(r["constant"] == 6 for r in complementary)


# the exact work of a rational gap scan: 46,431 cells on integers of 204,385
# bits, within the table ceiling (8.4e7 bits)
EXACT_SCAN_ARGV = ("gap-scan", "--N", "2", "--q", "1/1" + "0" * 150,
                   "--alpha-max", "200", "--gamma-max", "5")
# exact q-number tables at q = 1/10^150, whose Fraction steps reach 400 x 499
# bits: each ran past 15 s before their ceiling
EXACT_TABLE_ARGVS = (
    ("spectrum", "--N", "2", "--q", "1/1" + "0" * 150, "--alpha-max", "400"),
    ("fusion", "--N", "2", "--q", "1/1" + "0" * 150, "--alpha", "200", "--beta", "200"),
)
# amenability's exact eigenvalues at q = 1/10^150: 22 checkpoint labels up
# to 3,106 of 997 bits a label, 1.7e7 bits summed
EXACT_DELTA_ARGV = ("amenability", "--N", "2", "--q", "1/1" + "0" * 150,
                    "--n-max", "10000000000")
# part of the message of the ceiling a case must reach, where an earlier
# check could refuse it instead
CEILING_MESSAGES = {EXACT_SCAN_ARGV: "exact gap scan", EXACT_DELTA_ARGV: "exact eigenvalues"} | {
    argv: "exact q-number tables" for argv in EXACT_TABLE_ARGVS}


@pytest.mark.parametrize(
    "argv",
    [
        # dims: labels 0..alpha_max must number at most MAX_LABELS
        ("spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "20000"),
        ("fusion", "--N", "2", "--q", "1/2", "--alpha", "10000", "--beta", "10000"),
        ("hs-cert", "--N", "3", "--q", "0.25", "--t", "0", "--alpha-max", "20000"),
        # the fusion grid, whose cost grows like alpha_max^3
        ("fusion", "--N", "2", "--q", "0.5", "--alpha-max", "201"),
        # the labels amenability draws: about 6.7e6 for 10^20 eigenvalues at N = 2
        ("amenability", "--N", "2", "--q", "0.5", "--n-max", "1" + "0" * 20),
        # gap-scan: its labels, its grid, whose cells grow like alpha_max
        # gamma_max^2, and at rational q the integers of its cells, which grow
        # with alpha_max
        ("gap-scan", "--N", "2", "--q", "0.5", "--alpha-max", "100000",
         "--gamma-max", "100000"),
        ("gap-scan", "--N", "2", "--q", "0.99999", "--alpha-max", "20000", "--gamma-max", "0"),
        ("gap-scan", "--N", "2", "--q", "0.5", "--alpha-max", "2000", "--gamma-max", "20"),
        ("gap-scan", "--N", "2", "--q", "4/11", "--alpha-max", "10000", "--gamma-max", "0"),
        # the Cesaro sum's k terms
        ("cesaro", "--poly", "x", "--k", "100000000000"),
        # the word-calculus sweep's patterns: 524,046 here; listing stops past 20,000
        ("freeprod-verify", "--max-x", "5", "--max-side", "4", "--algebras", "4"),
        # the projections' 2^n chain arrays, capped at 14 strands
        ("jw-verify", "--q", "0.5", "--n-max", "15"),
        # the fusion coefficients' work: labels, and bits at tiny q (62 sites,
        # reference q^0, a pass at q = 0.5); lemma65 sums it over its alpha
        # range before its first estimate
        ("pentagon", "--q", "1e-300", "--alpha", "20", "--r", "40", "--s", "2",
         "--k", "0", "--l", "0"),
        ("lemma65", "--q", "0.5", "--alpha-max", "1000000000"),
        ("lemma65", "--q", "0.5", "--alpha-max", "300"),
        EXACT_SCAN_ARGV,
        *EXACT_TABLE_ARGVS,
        EXACT_DELTA_ARGV,
    ],
)
def test_cost_ceilings_are_resource_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "resource"
    assert CEILING_MESSAGES.get(argv, "") in error["message"]


@pytest.mark.parametrize("argv", EXACT_TABLE_ARGVS)
def test_exact_tables_refused_before_any_step(capsys, monkeypatch, argv):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a q-number table was stepped")

    monkeypatch.setattr(fusion, "_dims", unbuilt)
    monkeypatch.setattr(spectrum, "spectral_stream", unbuilt)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "exact q-number tables" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        # 15 checkpoint labels up to 310, which the q-number table ceiling refused
        ("amenability", "--N", "2", "--q", "1/1" + "0" * 150, "--n-max", "10000000"),
        # 31 checkpoint labels up to 14,421, where the table ceiling refused labels 0..14421
        ("amenability", "--N", "2", "--q", "1/2", "--n-max", "1000000000000"),
    ],
)
def test_exact_amenability_records_come_back(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    payload = json.loads(out)
    assert code == (0 if payload["verdict"] == "satisfied" else 1)
    n_max = int(argv[-1])
    checkpoints = [row["checkpoint"] for row in payload["rows"]]
    assert checkpoints == [1000 * 2**k for k in range(len(checkpoints) - 1)] + [n_max]


def test_hs_cert_reads_integer_dimensions_only(capsys, monkeypatch):
    # the record needs n_alpha alone; the q-dimensions at q = 1/10^150 took 10.9 s
    def unbuilt(*args, **kwargs):
        raise AssertionError("a q-dimension table was built")

    monkeypatch.setattr(fusion, "_dims", unbuilt)
    argv = ["hs-cert", "--N", "2", "--q", "1/1" + "0" * 150, "--t", "0.5",
            "--alpha-max", "400", "--format", "csv"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    golden = Path(__file__).parent / "golden" / "hs_cert" / "hs_cert_q1-1e150_t0.5_400_csv.csv"
    assert out == golden.read_bytes().decode("utf-8")
    code, _, err = run_cli(capsys, *argv[:-4], "--alpha-max", "20000")
    assert code == 3
    assert json.loads(err)["error"]["message"] == "labels 0..20000 exceed 20000 labels"


def test_jw_verify_refuses_before_any_level(capsys, monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(templieb, "_dicke_basis", unbuilt)
    monkeypatch.setattr(templieb, "_JW_CACHE", {})
    for n_max in ("15", "40"):
        code, out, err = run_cli(capsys, "jw-verify", "--q", "0.5", "--n-max", n_max)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["type"] == "resource"


def test_gap_scan_near_one_at_the_label_ceiling_prints_a_record(capsys):
    # the float tables take O(1) a label at every q, so near q = 1 as
    # elsewhere only the label ceiling bounds them
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "gap-scan", "--N", "2", "--q", "0.99999", "--alpha-max", "19999",
        "--gamma-max", "0",
    )
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["result"]["sup_ratio"] == 0 and record["verdict"] == "finite"


def test_gap_tables_sized_by_the_labels_cells_read(capsys):
    # no cell reads a label above alpha_max + min(gamma_max, alpha_max)
    records = []
    for gamma_max in ("10", "19990"):
        code, out, _ = run_cli(
            capsys, "gap-scan", "--N", "2", "--q", "0.5", "--alpha-max", "10",
            "--gamma-max", gamma_max,
        )
        record = json.loads(out)
        assert (code, record["inputs"]["gamma_max"]) == (1, int(gamma_max))
        del record["inputs"]
        records.append(record)
    assert records[0] == records[1]


def test_rational_fusion_grid_refused_before_any_cell(capsys, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(fusion, "fusion_check", reached)
    for q, alpha_max in (("4/11", "200"), ("4/11", "152"), ("1/1" + "0" * 150, "25")):
        code, out, err = run_cli(capsys, "fusion", "--N", "2", "--q", q, "--alpha-max", alpha_max)
        assert (code, out) == (3, "")
        assert "q-dimensions" in json.loads(err)["error"]["message"]
    # the largest grids within the bound go on to their cells
    for q, alpha_max in (("1/2", "200"), ("4/11", "151"), ("1/1" + "0" * 150, "24")):
        with pytest.raises(Reached):
            main(["fusion", "--N", "2", "--q", q, "--alpha-max", alpha_max])


def test_freeprod_single_pattern(capsys):
    code, out, _ = run_cli(
        capsys, "freeprod-verify", "--b", "0,1", "--x", "1,0,1", "--a", "1,0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    row = payload["rows"][0]
    assert row["x"] == "1;0;1"
    assert row["passed"] is True
    assert row["residual_zero"] is True


def test_freeprod_empty_pattern(capsys):
    # an empty --b, with --x and --a left out, is the empty pattern: one
    # row, not a sweep
    code, out, _ = run_cli(capsys, "freeprod-verify", "--b", "")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"patterns": 1, "failures": 0}
    (row,) = payload["rows"]
    assert (row["b"], row["x"], row["a"], row["lhs_is_zero"]) == ("", "", "", True)


def test_freeprod_sweep_small(capsys):
    code, out, _ = run_cli(
        capsys, "freeprod-verify", "--max-x", "2", "--max-side", "1",
        "--algebras", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["result"]["patterns"] == len(payload["rows"])
    assert payload["result"]["failures"] == 0


def test_freeprod_resource_limit(capsys):
    code, _, err = run_cli(
        capsys, "freeprod-verify", "--b", "0", "--x", "0,1,0,1,0", "--a", "0",
    )
    assert code == 3
    assert json.loads(err)["error"]["type"] == "resource"


def test_freeprod_letter_ceiling_before_any_pattern(capsys, monkeypatch):
    # 20,000 patterns pass the pattern ceiling, but their letters would take hours
    def unverified(*args, **kwargs):
        raise AssertionError("a pattern was verified")

    monkeypatch.setattr(freewords, "verify_boundary_expansion", unverified)
    code, out, err = run_cli(
        capsys, "freeprod-verify", "--max-x", "19999", "--max-side", "0", "--algebras", "2",
    )
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "resource"


def test_freeprod_single_pattern_letter_ceiling(capsys, monkeypatch):
    def unverified(*args, **kwargs):
        raise AssertionError("the pattern was verified")

    monkeypatch.setattr(freewords, "gradient_commutator", unverified)
    side = ",".join("01" * 30)
    code, out, err = run_cli(
        capsys, "freeprod-verify", "--b", side, "--x", side, "--a", side,
        "--max-x", "60", "--max-side", "60",
    )
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "resource"


def test_amenability_satisfied(capsys):
    code, out, _ = run_cli(
        capsys, "amenability", "--N", "2", "--q", "1", "--n-max", "1000000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "satisfied"
    assert payload["rows"][-1]["envelope"] > 50


def test_amenability_not_satisfied_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "amenability", "--N", "3", "--q", "0.381966",
        "--n-max", "20000",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not-satisfied"


def test_amenability_label_ceiling_before_any_eigenvalue(capsys, monkeypatch):
    # 10^14 eigenvalues at N = 2 need about 66,900 labels: refused from the
    # multiplicities alone, not after 20,001 exact eigenvalues
    def unformed(*args):
        raise AssertionError("an eigenvalue was formed")

    monkeypatch.setattr(spectrum, "eigenvalue", unformed)
    monkeypatch.setattr(spectrum, "_deltas", unformed)
    code, out, err = run_cli(
        capsys, "amenability", "--N", "2", "--q", "1/2", "--n-max", "100000000000000",
    )
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "resource"


def test_cesaro_linear_probe(capsys):
    code, out, _ = run_cli(capsys, "cesaro", "--poly", "x", "--k", "20000")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert abs(payload["result"]["value"] - payload["result"]["limit"]) <= 1e-3


def test_cesaro_quadratic_probe(capsys):
    code, out, _ = run_cli(capsys, "cesaro", "--poly", "x2", "--k", "20000")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["limit"] == 0


def test_cesaro_unknown_probe_is_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cesaro", "--poly", "cubic", "--k", "100"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-suite"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_output_file_matches_stdout(tmp_path, capsys):
    args = ("gap-scan", "--N", "2", "--q", "0.5", "--alpha-max", "12",
            "--gamma-max", "2")
    _, streamed, _ = run_cli(capsys, *args)
    target = tmp_path / "scan.json"
    code = main(list(args) + ["--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text(encoding="utf-8") == streamed


def test_timing_flag_adds_wall_time(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "2",
        "--timing",
    )
    assert code == 0
    payload = json.loads(out)
    assert "wall_time_s" in payload
    assert payload["wall_time_s"] >= 0


HS_CERT = ("hs-cert", "--N", "2", "--q", "0.5", "--t", "0.5", "--alpha-max", "30")


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--N", "2", "--q", "1/0", "--alpha-max", "10"),
        ("fusion", "--N", "2", "--q", "1/0", "--alpha-max", "10"),
        ("gap-scan", "--N", "2", "--q", "1/0", "--alpha-max", "10", "--gamma-max", "1"),
        ("spectrum", "--N", "2", "--q", "1e-400", "--alpha-max", "10"),
        ("fusion", "--N", "2", "--q", "1e-400", "--alpha-max", "10"),
        ("spectrum", "--N", "2", "--q", "1/10" + "0" * 400, "--alpha-max", "10"),
        ("hs-cert", "--N", "3", "--q", "0.25", "--t", "nan", "--alpha-max", "40"),
        ("hs-cert", "--N", "3", "--q", "0.25", "--t", "inf", "--alpha-max", "40"),
        ("fusion", "--N", "2", "--q", "0.5", "--alpha-max", "-1"),
        ("fusion", "--N", "2", "--q", "0.5", "--alpha-max", "-1", "--format", "csv"),
        ("freeprod-verify", "--max-x", "-1", "--format", "csv"),
        ("freeprod-verify", "--max-side", "-1"),
        # no algebra leaves only the empty pattern, a vacuous pass
        ("freeprod-verify", "--max-x", "2", "--max-side", "1", "--algebras", "0"),
        ("freeprod-verify", "--max-x", "2", "--max-side", "1", "--algebras", "-1"),
        # the reference q^alpha underflows to 0.0, or overflows at a negative exponent
        ("lemma65", "--q", "1e-30", "--alpha-max", "12"),
        ("pentagon", "--q", "1e-200", "--alpha", "3", "--r", "1", "--s", "1",
         "--k", "1", "--l", "1"),
        ("pentagon", "--q", "1e-200", "--alpha", "0", "--r", "5", "--s", "1",
         "--k", "1", "--l", "5"),
        # the reference is subnormal: 1e-320 keeps only a few of its bits
        ("lemma65", "--q", "1e-32", "--alpha-min", "10", "--alpha-max", "10",
         "--format", "csv"),
        ("pentagon", "--q", "1e-40", "--alpha", "8", "--r", "1", "--s", "1",
         "--k", "1", "--l", "1"),
        ("cesaro", "--poly", "x", "--k", "0"),
        ("lemma65", "--q", "0.5", "--alpha-min", "0", "--alpha-max", "3"),
        ("fusion", "--N", "2", "--q", "0.5", "--alpha", "3"),
        # tolerances: tail_floor lies in (0, 1), as margin does, a threshold is
        # finite, and the others are finite and >= 0; a NaN or inf would decide
        # the verdict by its comparisons and reach the record as NaN or
        # Infinity, which is not JSON, and a tail floor of -1 would make every
        # certificate divergent
        (*HS_CERT, "--tail-floor", "nan"),
        (*HS_CERT, "--tail-floor", "-1"),
        (*HS_CERT, "--tail-floor", "1"),
        ("amenability", "--N", "2", "--q", "0.5", "--n-max", "10000", "--threshold", "nan"),
        ("amenability", "--N", "2", "--q", "0.5", "--n-max", "10000", "--threshold", "inf"),
        ("cesaro", "--poly", "x", "--k", "100", "--tol", "nan"),
        ("cesaro", "--poly", "x", "--k", "100", "--tol", "-1"),
        ("jw-verify", "--q", "0.5", "--n-max", "4", "--residual-tol", "nan"),
        ("jw-verify", "--q", "0.5", "--n-max", "4", "--trace-tol", "nan"),
        ("jw-verify", "--q", "0.5", "--n-max", "4", "--trace-tol", "inf"),
    ],
)
def test_out_of_range_inputs_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "usage"


def test_output_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "record.json"
    code, out, err = run_cli(
        capsys, "spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "2",
        "--output", str(target),
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "usage"
    assert not target.exists()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _qint(q, n):
    """Exact [n]_q for rational q."""
    return (q ** -n - q ** n) / (q ** -1 - q)


def _rel_error(text, exact):
    return abs(Fraction(Decimal(text)) / exact - 1)


def test_numbers_beyond_double_range_stay_strict_json(capsys):
    # [751]_0.2 is about 1.758863024018e+524: no Infinity, no traceback
    code, out, _ = run_cli(capsys, "spectrum", "--N", "2", "--q", "0.2", "--alpha-max", "750")
    assert code == 0
    assert '"qdim": 1.75886302402e+524' in out
    json.loads(out, parse_constant=_reject_constant)
    # the exact route: [701]_(1/7) and [321]_(1/7) [401]_(1/7)
    q = Fraction(1, 7)
    code, out, _ = run_cli(capsys, "spectrum", "--N", "5", "--q", "1/7", "--alpha-max", "700")
    assert code == 0
    row = json.loads(out, parse_constant=_reject_constant, parse_float=str)["rows"][-1]
    assert _rel_error(row["qdim"], _qint(q, 701)) < 1e-11
    code, out, _ = run_cli(
        capsys, "fusion", "--N", "2", "--q", "1/7", "--alpha", "320", "--beta", "400",
    )
    assert code == 0
    row = json.loads(out, parse_constant=_reject_constant, parse_float=str)["rows"][0]
    product = _qint(q, 321) * _qint(q, 401)
    assert _rel_error(row["qdim_product"], product) < 1e-11
    assert _rel_error(row["qdim_sum"], product) < 1e-11


def test_numbers_beyond_double_range_in_csv(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--N", "2", "--q", "0.2", "--alpha-max", "750", "--format", "csv",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert rows[-1][header.index("qdim")] == "1.75886302402e+524"
    code, out, _ = run_cli(
        capsys, "fusion", "--N", "2", "--q", "1/7", "--alpha", "320", "--beta", "400",
        "--format", "csv",
    )
    assert code == 0
    header, rows = parse_csv(out)
    product = _qint(Fraction(1, 7), 321) * _qint(Fraction(1, 7), 401)
    assert _rel_error(rows[0][header.index("qdim_product")], product) < 1e-11


def test_failed_fusion_gram_check_is_a_numerical_error(capsys, monkeypatch):
    # no tolerance can be met below zero, so the first fusion isometry must fail
    monkeypatch.setattr(templieb, "_GRAM_TOL", -1.0)
    monkeypatch.setattr(templieb, "_ISO_CACHE", {})
    with pytest.raises(NumericalDegradationError) as exc:
        templieb.fusion_isometry(QParameter(Fraction(1, 2), 2), 2, 1, 1)
    assert exc.value.residual >= 0
    code, out, err = run_cli(
        capsys, "pentagon", "--q", "0.5", "--alpha", "3", "--r", "1",
        "--s", "1", "--k", "1", "--l", "1",
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "numerical"
    assert "scalar multiple" in error["message"]


SUITES = [
    ("spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "4"),
    ("fusion", "--N", "2", "--q", "1/2", "--alpha-max", "2"),
    ("hs-cert", "--N", "3", "--q", "0.25", "--t", "0", "--alpha-max", "30"),
    ("gap-scan", "--N", "2", "--q", "0.5", "--alpha-max", "12", "--gamma-max", "2"),
    ("jw-verify", "--q", "0.5", "--n-max", "3"),
    ("pentagon", "--q", "0.5", "--alpha", "2", "--r", "1", "--s", "1", "--k", "1", "--l", "1"),
    ("lemma65", "--q", "0.5", "--alpha-min", "1", "--alpha-max", "2"),
    ("freeprod-verify", "--max-x", "1", "--max-side", "1", "--algebras", "2"),
    ("amenability", "--N", "2", "--q", "1", "--n-max", "1000"),
    ("cesaro", "--poly", "x", "--k", "100"),
]


@pytest.mark.parametrize("argv", SUITES, ids=[argv[0] for argv in SUITES])
def test_csv_header_matches_json_record(capsys, argv):
    # one record feeds both formats: the CSV header is the keys of the first
    # JSON row, or of the result plus the verdict when there are no rows
    _, out, _ = run_cli(capsys, *argv)
    record = json.loads(out)
    _, out, _ = run_cli(capsys, *argv, "--format", "csv")
    header, rows = parse_csv(out)
    if "rows" in record:
        assert header == list(record["rows"][0])
        assert len(rows) == len(record["rows"])
    else:
        assert header == list(record["result"]) + ["verdict"]
        assert len(rows) == 1
