"""Oracles for `qgs` CLI records, independent of the code under test.

Every value is recomputed from closed forms or plain integer recurrences
written here, never by calling `qgs`:

- eigenvalues from delta_a = (a+1) L - C + r_a with L = q/(1-q^2),
  C = q(1+q^2)/(1-q^2)^2 and r_a = 2(a+1) q^(2a+3) / ((1-q^2)(1-q^(2a+2))),
  and delta_a = a(a+2)/6 at q = 1 (N = 2);
- quantum dimensions [n]_q = (q^-n - q^n) / (q^-1 - q), and n at q = 1;
- classical dimensions from n_{a+1} = N n_a - n_{a-1};
- gap-scan ratios at a cell exactly in Fractions, where the linear part
  of delta cancels and leaves |r_{a+g} - r_a - r_b + r_{b-g}|;
- word-calculus pattern counts by a restricted-growth enumeration.

`judge(job, returncode, stdout, stderr, rng)` returns an Outcome.  A job
*fails* when it exits with a code that does not match its record, ends in
a traceback, prints non-strict JSON, or reports a verdict or checked
field that disagrees with the oracle.  A failure is *unsound* when the
record is affirmative (exit 0) yet a checked field or the verdict is
refuted; a run with an unsound record is not correct.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

AFFIRMATIVE = frozenset({"pass", "finite", "divergent", "satisfied"})
ERROR_CODES = {"usage": 2, "resource": 3, "numerical": 1}
REL_TOL = 1e-9
ABS_TOL = 1e-12
LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass
class Outcome:
    failed: bool = False
    unsound: bool = False
    reasons: list = field(default_factory=list)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def parse_strict(text):
    """json.loads that rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def options(argv):
    """Map '--flag value' pairs of a CLI argv to {'flag': 'value'}."""
    out = {}
    for i in range(1, len(argv) - 1, 2):
        out[argv[i].lstrip("-").replace("-", "_")] = argv[i + 1]
    return out


def close(got, want, rel=REL_TOL, abs_tol=ABS_TOL):
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= max(abs_tol, rel * abs(want))


# ---------------------------------------------------------------- closed forms


def delta(q, a):
    """Generator eigenvalue at label a, in floats."""
    if q == 1:
        return a * (a + 2) / 6
    q = float(q)
    s = 1 - q * q
    big_l = q / s
    big_c = q * (1 + q * q) / (s * s)
    r = 2 * (a + 1) * q ** (2 * a + 3) / (s * (1 - q ** (2 * a + 2)))
    return (a + 1) * big_l - big_c + r


def qint(q, n):
    """[n]_q in floats, inf when it exceeds the float range."""
    if q == 1:
        return float(n)
    qf = float(q)
    log_mag = -(n - 1) * math.log(qf) + math.log((1 - qf ** (2 * n)) / (1 - qf * qf))
    if log_mag > LOG_FLOAT_MAX:
        return math.inf
    return math.exp(-(n - 1) * math.log(qf)) * (1 - qf ** (2 * n)) / (1 - qf * qf)


def dims(n_model, top):
    n = [1, n_model]
    while len(n) <= top:
        n.append(n_model * n[-1] - n[-2])
    return n[: top + 1]


def r_exact(q, a):
    return 2 * (a + 1) * q ** (2 * a + 3) / ((1 - q * q) * (1 - q ** (2 * a + 2)))


def gap_ratio(q, a, b, g):
    """Gap-functional ratio at one cell, exact for rational q < 1."""
    lhs = abs(r_exact(q, a + g) - r_exact(q, a) - r_exact(q, b) + r_exact(q, b - g))
    rhs = (
        abs(g) * abs(q ** (2 * a + 2 * g) - q ** (2 * b + 2 * g))
        + b * abs(q ** (2 * b) - q ** (2 * b - 2 * g))
        + a * abs(q ** (2 * a) - q ** (2 * a + 2 * g))
    )
    if rhs == 0:
        return 0.0 if lhs == 0 else math.inf
    return float(lhs / rhs)


@lru_cache(maxsize=None)
def canonical_patterns(max_x, max_side, algebras):
    """Number of (b, x, a) reduced type patterns up to relabelling.

    Counts restricted-growth labellings of the concatenation b x a, where
    consecutive letters inside one word differ and at most `algebras`
    labels occur.
    """

    def count(lengths, seg, pos, last, used):
        if seg == 3:
            return 1
        if pos == lengths[seg]:
            return count(lengths, seg + 1, 0, None, used)
        total = 0
        for label in range(min(used + 1, algebras)):
            if label != last:
                total += count(lengths, seg, pos + 1, label, max(used, label + 1))
        return total

    return sum(
        count((lb, lx, la), 0, 0, None, 0)
        for lb in range(max_side + 1)
        for lx in range(max_x + 1)
        for la in range(max_side + 1)
    )


# ---------------------------------------------------------------- suite checks


def _rows_equal_len(rec, n, problems):
    rows = rec.get("rows") or []
    if len(rows) != n:
        problems.append(f"{len(rows)} rows, want {n}")
        return []
    return rows


def check_spectrum(opts, rec, problems):
    q, n_model, top = Fraction(opts["q"]), int(opts["N"]), int(opts["alpha_max"])
    n = dims(n_model, top)
    prev = None
    for a, row in enumerate(_rows_equal_len(rec, top + 1, problems)):
        d = delta(q, a)
        want = {"alpha": a, "n": n[a], "qdim": qint(q, a + 1), "delta": d,
                "gap": 0.0 if prev is None else d - prev}
        prev = d
        for key, value in want.items():
            got = row.get(key)
            ok = got == value if isinstance(value, int) else close(got, value)
            if not ok:
                problems.append(f"row {a} {key}={got!r}, oracle {value!r}")
                return


def check_fusion(opts, rec, problems):
    q, n_model = Fraction(opts["q"]), int(opts["N"])
    if "alpha" in opts:
        cells = [(int(opts["alpha"]), int(opts["beta"]))]
    else:
        top = int(opts.get("alpha_max", 20))
        cells = [(a, b) for a in range(top + 1) for b in range(a, top + 1)]
    n = dims(n_model, max(a + b for a, b in cells))
    for (a, b), row in zip(cells, _rows_equal_len(rec, len(cells), problems)):
        channels = list(range(abs(a - b), a + b + 1, 2))
        product = qint(q, a + 1) * qint(q, b + 1)
        want = {
            "alpha": a, "beta": b, "channels": ";".join(map(str, channels)),
            "n_product": n[a] * n[b], "n_sum": sum(n[g] for g in channels),
            "classical_ok": True, "quantum_ok": True,
        }
        for key, value in want.items():
            if row.get(key) != value:
                problems.append(f"cell {(a, b)} {key}={row.get(key)!r}, oracle {value!r}")
                return
        for key in ("qdim_product", "qdim_sum"):
            if not close(row.get(key), product):
                problems.append(f"cell {(a, b)} {key}={row.get(key)!r}, oracle {product!r}")
                return


def check_hs_cert(opts, rec, problems):
    q, n_model = Fraction(opts["q"]), int(opts["N"])
    t, top = float(opts["t"]), int(opts["alpha_max"])
    n = dims(n_model, top)
    lq = math.log(float(q))
    acc = 0.0
    for a, row in enumerate(_rows_equal_len(rec, top + 1, problems)):
        qa = math.exp(a * lq)
        log_n2 = 2 * math.log(n[a])
        term = math.exp(log_n2 + 2 * math.log(qa * qa + qa) - 2 * t * a) if qa > 0 else 0.0
        comp = math.exp(log_n2 + 2 * a * lq - 2 * t * a)
        acc += term
        for key, value in (("term", term), ("compressed_term", comp), ("partial_sum", acc)):
            if not close(row.get(key), value, rel=1e-8, abs_tol=1e-300):
                problems.append(f"row {a} {key}={row.get(key)!r}, oracle {value!r}")
                return
    ratio = math.exp(2 * math.log(n[top]) / top + 2 * lq - 2 * t)
    got = (rec.get("result") or {}).get("ratio_value")
    if not close(got, ratio, rel=1e-8):
        problems.append(f"ratio_value={got!r}, oracle {ratio!r}")


def check_gap_scan(opts, rec, problems, rng):
    q = Fraction(opts["q"])
    top, gmax = int(opts["alpha_max"]), int(opts["gamma_max"])
    res = rec.get("result") or {}
    sup = res.get("sup_ratio")
    cell = (res.get("argmax_alpha"), res.get("argmax_beta"), res.get("argmax_gamma"))
    if not all(isinstance(v, int) for v in cell) or not isinstance(sup, (int, float)):
        problems.append(f"malformed result {res!r}")
        return
    a, b, g = cell
    if not (0 <= a <= top and abs(b - a) <= 2 * gmax and 0 <= b <= top and abs(g) <= gmax):
        problems.append(f"argmax {cell} outside the grid")
        return
    want = gap_ratio(q, a, b, g)
    if not close(sup, want, rel=1e-8):
        problems.append(f"sup_ratio={sup!r}, oracle ratio at argmax {cell} is {want!r}")
    # A few grid cells drawn from the job's seed may not exceed the sup.
    for _ in range(4):
        ca = rng.randint(0, top)
        cb = rng.randint(max(0, ca - 2 * gmax), min(top, ca + 2 * gmax))
        cg = rng.randint(-gmax, gmax)
        if ca + cg < 0 or cb - cg < 0 or abs(cg) > max(ca, cb):
            continue
        ratio = gap_ratio(q, ca, cb, cg)
        if ratio > sup * (1 + 1e-8) + ABS_TOL:
            problems.append(f"cell {(ca, cb, cg)} ratio {ratio!r} exceeds sup_ratio {sup!r}")
    low, high = res.get("window_low_sup"), res.get("window_high_sup")
    if not (isinstance(low, (int, float)) and isinstance(high, (int, float))):
        problems.append("missing window sups")
        return
    if max(low, high) > sup * (1 + 1e-12):
        problems.append("a window sup exceeds sup_ratio")
    stable = (low == high == 0.0) or abs(high - low) <= 0.1 * max(high, low)
    if res.get("stable") != stable:
        problems.append(f"stable={res.get('stable')!r} but windows give {stable}")
    verdict = "finite" if math.isfinite(sup) and stable else "fail"
    if rec.get("verdict") != verdict:
        problems.append(f"verdict {rec.get('verdict')!r} but fields give {verdict!r}")


def check_amenability(opts, rec, problems):
    q, n_model = Fraction(opts["q"]), int(opts["N"])
    n_max = int(opts["n_max"])
    warmup, threshold = int(opts.get("warmup", 1000)), float(opts.get("threshold", 50.0))
    checkpoints = [min(warmup, n_max)]
    while checkpoints[-1] * 2 <= n_max:
        checkpoints.append(checkpoints[-1] * 2)
    if checkpoints[-1] != n_max:
        checkpoints.append(n_max)
    ratios = []
    covered, label, n_prev, n_cur = 0, -1, 0, 1
    for cp in checkpoints:
        while covered < cp:
            label += 1
            if label > 0:
                n_prev, n_cur = n_cur, n_model * n_cur - n_prev
            covered += n_cur * n_cur
        ratios.append(delta(q, label) / math.log(cp))
    envelope, running = [], math.inf
    for r in reversed(ratios):
        running = min(running, r)
        envelope.append(running)
    envelope.reverse()
    rows = _rows_equal_len(rec, len(checkpoints), problems)
    for cp, r, e, row in zip(checkpoints, ratios, envelope, rows):
        if row.get("checkpoint") != cp or not close(row.get("ratio"), r) or not close(
            row.get("envelope"), e
        ):
            problems.append(f"row {row!r}, oracle {(cp, r, e)!r}")
            return
    liminf = min(r for r, cp in zip(ratios, checkpoints) if 2 * cp >= n_max)
    got = (rec.get("result") or {}).get("liminf_estimate")
    if not close(got, liminf):
        problems.append(f"liminf_estimate={got!r}, oracle {liminf!r}")
    if abs(liminf - threshold) > 1e-6 * threshold:
        want = "satisfied" if liminf > threshold else "not-satisfied"
        if rec.get("verdict") != want:
            problems.append(f"verdict {rec.get('verdict')!r}, oracle {want!r}")


def check_jw_verify(opts, rec, problems):
    n_max = int(opts["n_max"])
    for n, row in enumerate(_rows_equal_len(rec, n_max, problems), 1):
        if row.get("n") != n or row.get("rank") != n + 1:
            problems.append(f"row {n}: n={row.get('n')!r} rank={row.get('rank')!r}, want rank {n + 1}")
            return


def check_lemma65(opts, rec, problems):
    lo, hi = int(opts.get("alpha_min", 2)), int(opts.get("alpha_max", 6))
    want = [
        (a, k, l, 6 if (k, l) == (-1, -1) else 2)
        for a in range(lo, hi + 1)
        for k, l in ((1, 1), (1, -1), (-1, 1), (-1, -1))
        if min(a + k, a + l, a + k + l) >= 0
    ]
    rows = _rows_equal_len(rec, len(want), problems)
    for (a, k, l, c), row in zip(want, rows):
        got = (row.get("alpha"), row.get("k"), row.get("l"), row.get("constant"))
        if got != (a, k, l, c):
            problems.append(f"row {got}, want {(a, k, l, c)}")
            return
        if row.get("passed") != (row.get("ratio", math.inf) <= c + 1e-9):
            problems.append(f"row {got}: passed disagrees with ratio")
            return


def check_pentagon(opts, rec, problems):
    q = float(Fraction(opts["q"]))
    alpha, r, k = int(opts["alpha"]), int(opts["r"]), int(opts["k"])
    res = rec.get("result") or {}
    bound = q ** (alpha + (k - r) / 2)
    if not close(res.get("bound"), bound):
        problems.append(f"bound={res.get('bound')!r}, oracle {bound!r}")
        return
    defect = res.get("defect")
    if not isinstance(defect, (int, float)) or not close(res.get("ratio"), defect / bound, rel=1e-9):
        problems.append(f"ratio={res.get('ratio')!r} is not defect/bound")
        return
    if (r, int(opts["s"]), k, int(opts["l"])) == (1, 1, 1, 1) and defect > 1e-10:
        problems.append(f"same-shift defect {defect!r} should vanish")
    verdict = "pass" if res["ratio"] <= 2 + 1e-9 else "fail"
    if rec.get("verdict") != verdict:
        problems.append(f"verdict {rec.get('verdict')!r} but ratio gives {verdict!r}")


def _pattern(text):
    return tuple(int(t) for t in text.split(",")) if text else ()


def _row_ok(row, b, x, a, problems):
    must_vanish = len(x) > len(b) + len(a) - 1
    want = {
        "b": ";".join(map(str, b)), "x": ";".join(map(str, x)), "a": ";".join(map(str, a)),
        "must_vanish": must_vanish, "length_bound": len(b) + len(a),
        "residual_zero": True, "passed": True,
    }
    for key, value in want.items():
        if row.get(key) != value:
            problems.append(f"pattern {(b, x, a)} {key}={row.get(key)!r}, want {value!r}")
            return False
    if must_vanish and row.get("lhs_is_zero") is not True:
        problems.append(f"pattern {(b, x, a)} must vanish")
        return False
    if not isinstance(row.get("max_word_length"), int) or row["max_word_length"] > len(b) + len(a):
        problems.append(f"pattern {(b, x, a)} ledger word too long")
        return False
    return True


def _canonical(b, x, a):
    relabel = {}
    return tuple(
        tuple(relabel.setdefault(t, len(relabel)) for t in seq) for seq in (b, x, a)
    )


def check_freeprod(opts, rec, problems):
    res = rec.get("result") or {}
    if res.get("failures") != 0:
        problems.append(f"failures={res.get('failures')!r}")
    if any(k in opts for k in ("b", "x", "a")):
        b, x, a = (_pattern(opts.get(k, "")) for k in ("b", "x", "a"))
        rows = _rows_equal_len(rec, 1, problems)
        if res.get("patterns") != 1:
            problems.append(f"patterns={res.get('patterns')!r}, want 1")
        if rows:
            _row_ok(rows[0], b, x, a, problems)
        return
    cfg = (int(opts.get("max_x", 4)), int(opts.get("max_side", 3)), int(opts.get("algebras", 3)))
    want = canonical_patterns(*cfg)
    if res.get("patterns") != want:
        problems.append(f"patterns={res.get('patterns')!r}, independent count {want}")
    seen = set()
    for row in _rows_equal_len(rec, want, problems):
        b, x, a = (_pattern(row.get(k, "").replace(";", ",")) for k in ("b", "x", "a"))
        canon = (b, x, a)
        if _canonical(b, x, a) != canon or canon in seen:
            problems.append(f"pattern {canon} is not canonical or repeats")
            return
        seen.add(canon)
        if not _row_ok(row, b, x, a, problems):
            return


CHECKS = {
    "spectrum": check_spectrum,
    "fusion": check_fusion,
    "hs-cert": check_hs_cert,
    "amenability": check_amenability,
    "jw-verify": check_jw_verify,
    "lemma65": check_lemma65,
    "pentagon": check_pentagon,
    "freeprod-verify": check_freeprod,
}


def check_record(job, rec, rng):
    """Problems of a parsed record against the job's oracle."""
    problems = []
    if not isinstance(rec, dict) or rec.get("suite") != job.suite:
        return [f"record is not a {job.suite} record"]
    opts = options(job.argv)
    try:
        if job.suite == "gap-scan":
            check_gap_scan(opts, rec, problems, rng)
        else:
            CHECKS[job.suite](opts, rec, problems)
    except (TypeError, ValueError, KeyError, AttributeError, ZeroDivisionError) as exc:
        problems.append(f"malformed record: {exc!r}")
    if job.verdict is not None and rec.get("verdict") != job.verdict:
        problems.append(f"verdict {rec.get('verdict')!r}, oracle {job.verdict!r}")
    return problems


def judge(job, returncode, stdout, stderr, rng):
    """Classify one finished job."""
    out = Outcome()
    if returncode is None:
        out.failed = True
        out.reasons.append("timed out")
        return out
    if "Traceback (most recent call last)" in stderr:
        out.failed = True
        out.reasons.append("traceback: " + stderr.strip().splitlines()[-1][:200])
        return out
    if stdout.strip():
        try:
            rec = parse_strict(stdout)
        except ValueError as exc:
            out.failed = True
            out.reasons.append(f"output is not strict JSON: {exc}")
            return out
        verdict = rec.get("verdict") if isinstance(rec, dict) else None
        want_code = 0 if verdict in AFFIRMATIVE else 1
        if returncode != want_code:
            out.failed = True
            out.reasons.append(f"exit {returncode} with verdict {verdict!r}")
        problems = check_record(job, rec, rng)
        # On inputs that expect an error, a record that passes its oracle
        # is an acceptable answer too.
        if problems:
            out.failed = True
            out.reasons.extend(problems)
            out.unsound = returncode == 0 and verdict in AFFIRMATIVE
        return out
    lines = stderr.strip().splitlines()
    try:
        err = parse_strict(lines[-1])["error"]
        kind = err["type"]
    except (IndexError, ValueError, KeyError, TypeError):
        out.failed = True
        out.reasons.append(f"exit {returncode} with neither a record nor a JSON error")
        return out
    if ERROR_CODES.get(kind) != returncode:
        out.failed = True
        out.reasons.append(f"{kind} error with exit {returncode}")
    elif job.expect != "error":
        out.failed = True
        out.reasons.append(f"{kind} error on valid input: {err.get('message')!r}")
    elif kind not in ("usage", "resource"):
        out.failed = True
        out.reasons.append(f"{kind} error where a usage or resource error is due")
    return out
