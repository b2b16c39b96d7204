"""Tests of the benchmark itself: generator, oracle and span arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def first_blocks(workload, seed, count=3):
    return list(itertools.islice(jobs.blocks(workload, seed), count))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert first_blocks(workload, 5) == first_blocks(workload, 5)
    assert first_blocks(workload, 5) != first_blocks(workload, 6)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_block_has_the_same_slots(workload):
    def slots(block):
        return sorted(job.slot for job in block)

    reference = slots(first_blocks(workload, 1, 1)[0])
    for seed in range(2, 6):
        for block in first_blocks(workload, seed):
            assert slots(block) == reference


def test_decimal_q_is_admissible_for_its_n():
    for seed in range(20):
        for block in first_blocks("spectral-float", seed):
            for job in block:
                opts = oracle.options(job.argv)
                if job.expect == "record" and "N" in opts:
                    q = float(opts["q"])
                    assert q + 1 / q >= int(opts["N"]) - 1e-9, job


def cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "qgs.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


SPECTRUM = jobs.Job("t.0", "spectrum.small",
                    ("spectrum", "--N", "2", "--q", "0.5", "--alpha-max", "6"), verdict="pass")
GAP_SCAN = jobs.Job("t.1", "gap-scan.small",
                    ("gap-scan", "--N", "2", "--q", "1/2", "--alpha-max", "12", "--gamma-max", "1"))


@pytest.fixture(scope="module")
def spectrum_run():
    return cli(*SPECTRUM.argv)


def judge(job, code, out, err):
    return oracle.judge(job, code, out, err, random.Random(0))


def test_oracle_accepts_a_true_record(spectrum_run):
    outcome = judge(SPECTRUM, *spectrum_run)
    assert not outcome.failed, outcome.reasons


def test_oracle_rejects_a_wrong_verdict(spectrum_run):
    code, out, err = spectrum_run
    outcome = judge(SPECTRUM, 1, out.replace('"verdict": "pass"', '"verdict": "fail"'), err)
    assert outcome.failed and not outcome.unsound


def test_oracle_rejects_infinity(spectrum_run):
    code, out, err = spectrum_run
    corrupted = out.replace('"qdim": 1.0', '"qdim": Infinity', 1)
    assert corrupted != out
    outcome = judge(SPECTRUM, code, corrupted, err)
    assert outcome.failed
    assert "strict JSON" in outcome.reasons[0]


def test_oracle_rejects_a_traceback():
    err = 'Traceback (most recent call last):\n  File "x"\nOverflowError: too large\n'
    outcome = judge(SPECTRUM, 1, "", err)
    assert outcome.failed
    assert "traceback" in outcome.reasons[0]


def test_oracle_flags_a_wrong_affirmed_value_as_unsound(spectrum_run):
    code, out, err = spectrum_run
    corrupted = out.replace('"delta": 0.4', '"delta": 0.41', 1)
    assert corrupted != out
    outcome = judge(SPECTRUM, code, corrupted, err)
    assert outcome.failed and outcome.unsound


def test_oracle_checks_the_gap_scan_argmax():
    code, out, err = cli(*GAP_SCAN.argv)
    assert not judge(GAP_SCAN, code, out, err).failed
    record = oracle.parse_strict(out)
    record["result"]["sup_ratio"] *= 1.01
    assert judge(GAP_SCAN, code, json.dumps(record), err).failed


def test_usage_error_on_bad_input_is_not_a_failure():
    job = jobs.Job("t.2", "edge", ("spectrum", "--N", "3", "--q", "0.5", "--alpha-max", "5"),
                   expect="error")
    assert not judge(job, *cli(*job.argv)).failed


def test_canonical_pattern_count_matches_the_documented_sweep():
    assert oracle.canonical_patterns(4, 3, 3) == 3715


def test_self_time_of_a_span_nest():
    # name_id, start, end, parent, job, error
    spans = [
        [0, 0.0, 10.0, -1, "j", 0],  # root
        [1, 1.0, 4.0, 0, "j", 0],    # child of root
        [2, 2.0, 3.0, 1, "j", 0],    # grandchild
        [1, 5.0, 7.0, 0, "j", 1],    # second child, raised
        [2, 6.5, 8.0, 0, "j", 0],    # overlaps the second child
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 3 - 3, 2.0, 1.0, 2.0, 1.5])
    payload = {"names": ["cli.main", "spectrum.a", "fusion.b"], "spans": spans}
    totals = tracer.layer_totals(payload)
    assert totals["cli.self_s"] == pytest.approx(4.0)
    assert totals["spectrum.self_s"] == pytest.approx(4.0)
    assert totals["fusion.self_s"] == pytest.approx(2.5)
    assert totals["spectrum.errors"] == 1


def test_tail_has_ten_samples_beyond_it():
    walls = [float(i) for i in range(1, 49)]
    value, pct, n = run.tail(walls)
    assert (pct, n) == (79, 48)
    assert sum(w > value for w in walls) >= 10


def test_import_times_parse_cumulative_column():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       900 |      90000 |   numpy\n"
           "import time:       500 |      30000 |   mpmath\n"
           "import time:       181 |     400000 | qgs\n"
           "import time:        21 |        202 | qgs.cli\n")
    got = run.import_times(log)
    assert got == pytest.approx({"import.qgs_s": 0.400202, "import.numpy_s": 0.09,
                                 "import.mpmath_s": 0.03})
