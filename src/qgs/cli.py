"""Batch command-line front end for the verification suites.

Every subcommand maps one-to-one onto a library operation and adds no
numerics of its own; it parses parameters, runs the operation, and emits
a deterministic CSV table or JSON report.  Numbers are formatted at 12
significant digits, so identical requests at fixed precision produce
byte-identical output; an exact or Decimal value beyond the double range
is written as a plain number such as 1.75886302402e+524.  Exit codes: 0
affirmative verdict; 1 either a record whose verdict fails, or, for a
NumericalDegradationError, exactly one JSON error line of type numerical
with nothing on stdout; 2 usage error; 3 resource limit.
"""

import argparse
import json
import math
import re
import sys
import time

from . import precision as _precision
from .errors import NumericalDegradationError, ResourceLimitError
from .precision import precision_bits, set_precision_bits

AFFIRMATIVE_VERDICTS = frozenset({"pass", "finite", "divergent", "satisfied"})

CESARO_PROBES = {
    "x": (lambda s: s, 1.0),
    "x2": (lambda s: s * s, 0.0),
    "exp2x": (lambda s: math.exp(2.0 * s), 2.0),
}

# parsed flags that belong to every subcommand, not to the record's inputs
_COMMON = frozenset({"command", "handler", "format", "output", "precision_bits", "timing"})
# parsed flags (and pentagon's fixed constant) that the record lists as tolerances
_TOLERANCES = frozenset({"residual_tol", "trace_tol", "warmup", "threshold", "tol", "constant"})
# Decimal, Fraction and the 12-digit context of a wide number, taken on the first
# one: a run whose numbers all fit a double imports neither decimal nor fractions
_DECIMAL = None


class _Wide:
    """A finite number outside the normal double range, held as its 12-digit text."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


def _num(x):
    """x at 12 significant digits: a float, or _Wide for a finite nonzero
    Fraction or Decimal beyond the double range or below its normal range,
    where a float would keep fewer digits or none (a float stays a float,
    and an infinite Decimal becomes one)."""
    global _DECIMAL
    try:
        value = float(x)
    except OverflowError:  # a Fraction beyond the double range
        value = math.inf
    if (isinstance(x, float) or sys.float_info.min <= abs(value) < math.inf or not x
            or value != value or abs(x) == math.inf):
        return float(f"{value:.12g}")  # a float, a normal double, a zero, a NaN or an infinity
    if _DECIMAL is None:
        from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
        from fractions import Fraction

        _DECIMAL = Decimal, Fraction, Context(prec=12, Emax=MAX_EMAX, Emin=MIN_EMIN)
    Decimal, Fraction, digits = _DECIMAL
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
        # 2^(e-1) < |x| < 2^(e+1) and 0.3 < log10(2) < 0.31, so the quotient by 10^k
        # has at least 29 digits, and a last sticky digit marks a nonzero
        # remainder, so the one half-even rounding to 12 digits is exact
        e = abs(num).bit_length() - den.bit_length()
        k = min(e * 3 // 10, e * 31 // 100) - 30
        q, r = divmod(abs(num) * 10 ** max(-k, 0), den * 10 ** max(k, 0))
        x = Decimal(f"{'-' if num < 0 else ''}{10 * q + (r > 0)}E{k - 1}")
    return _Wide(format(digits.plus(x).normalize(digits), "g"))


def _row(obj, *names, **extra):
    """The named attributes of obj, then extra, as a record row or result:
    ints, bools and strings as they are, sequences joined by ';', numbers by _num."""
    row = {name: getattr(obj, name) for name in names}
    row.update(extra)
    for key, value in row.items():
        if isinstance(value, (list, tuple)):
            row[key] = ";".join(str(v) for v in value)
        elif not isinstance(value, (int, str)):
            row[key] = _num(value)
    return row


def _param(args):
    from .chebyshev import QParameter

    return QParameter(args.q, args.N)  # chebyshev._read reads the text


def _parse_pattern(text):
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _record(args, verdict, result, rows):
    """The one record of a run; inputs and tolerances are its parsed suite flags."""
    flags = {k: v for k, v in vars(args).items() if k not in _COMMON}
    record = {
        "suite": args.command,
        "inputs": {k: v for k, v in flags.items() if k not in _TOLERANCES},
        "precision_bits": precision_bits(),
    }
    tolerances = {k: v for k, v in flags.items() if k in _TOLERANCES} or None
    for key, value in (("tolerances", tolerances), ("result", result), ("rows", rows)):
        if value is not None:
            record[key] = value
    record["verdict"] = verdict
    return record


def _check_tolerances(args, *names):
    """Refuse a tolerance flag that is not a finite number >= 0."""
    for name in names:
        if not 0 <= getattr(args, name) < math.inf:
            raise ValueError(f"--{name.replace('_', '-')} must be a finite number >= 0")


def _cmd_spectrum(args):
    from .spectrum import spectral_rows

    rows = [
        _row(r, "alpha", "n", "qdim", "delta", "gap")
        for r in spectral_rows(_param(args), args.alpha_max)
    ]
    return "pass", None, rows


def _cmd_fusion(args):
    from .fusion import fusion_check, fusion_grid

    param = _param(args)
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    if args.alpha is not None:
        checks = [fusion_check(param, args.alpha, args.beta)]
    elif args.alpha_max < 0:
        raise ValueError("--alpha-max must be >= 0")
    else:
        checks = fusion_grid(param, args.alpha_max)
    rows = [
        _row(c, "alpha", "beta", "channels", "n_product", "n_sum",
             "qdim_product", "qdim_sum", "classical_ok", "quantum_ok")
        for c in checks
    ]
    ok = all(c.classical_ok and c.quantum_ok for c in checks)
    return "pass" if ok else "fail", None, rows


def _cmd_hs_cert(args):
    from .estimates import hs_certificate

    cert = hs_certificate(_param(args), args.t, args.alpha_max)
    series = zip(cert.terms, cert.compressed_terms, cert.partial_sums)
    rows = [
        _row(None, alpha=a, term=term, compressed_term=comp, partial_sum=acc)
        for a, (term, comp, acc) in enumerate(series)
    ]
    return cert.verdict, _row(cert, "ratio_value"), rows


def _cmd_gap_scan(args):
    from .estimates import gap_constant_scan

    scan = gap_constant_scan(_param(args), args.alpha_max, args.gamma_max)
    verdict = "finite" if math.isfinite(scan.sup_ratio) and scan.stable else "fail"
    alpha, beta, gamma = scan.argmax
    result = _row(
        scan, "sup_ratio", argmax_alpha=alpha, argmax_beta=beta, argmax_gamma=gamma,
        window_low_sup=scan.window_low_sup, window_high_sup=scan.window_high_sup,
        stable=scan.stable,
    )
    return verdict, result, None


def _cmd_jw_verify(args):
    from .templieb import jw_report

    _check_tolerances(args, "residual_tol", "trace_tol")
    rows = [
        _row(
            row, "n", "rank", "idempotency", "annihilation", "trace_error",
            "trace_rel_error",
            ok=(
                row.idempotency <= args.residual_tol
                and row.annihilation <= args.residual_tol
                and row.trace_rel_error <= args.trace_tol
            ),
        )
        for row in jw_report(_param(args), args.n_max)
    ]
    return "pass" if all(r["ok"] for r in rows) else "fail", None, rows


def _cmd_pentagon(args):
    from .templieb import pentagon_bound, pentagon_defect

    param = _param(args)
    bound = float(pentagon_bound(param, args.alpha, args.r, args.k))  # refused before any work
    defect = pentagon_defect(param, args.alpha, args.r, args.s, args.k, args.l)
    ratio = defect / bound
    verdict = "pass" if ratio <= args.constant + 1e-9 else "fail"
    return verdict, _row(None, defect=defect, bound=bound, ratio=ratio), None


def _cmd_lemma65(args):
    from .templieb import commutator_suite

    if args.alpha_min < 1 or args.alpha_max < args.alpha_min:
        raise ValueError("need 1 <= alpha-min <= alpha-max")
    rows = [
        _row(est, "alpha", "k", "l", "weighted_defect", "reference", "ratio",
             "constant", "passed")
        for est in commutator_suite(_param(args), range(args.alpha_min, args.alpha_max + 1))
    ]
    return "pass" if all(r["passed"] for r in rows) else "fail", None, rows


def _cmd_freeprod(args):
    from .freewords import expansion_sweep, verify_boundary_expansion

    if args.b is not None or args.x is not None or args.a is not None:
        pattern = [_parse_pattern(text) for text in (args.b, args.x, args.a)]
        reports = [
            verify_boundary_expansion(*pattern, max_x=args.max_x, max_side=args.max_side)
        ]
    else:
        reports = expansion_sweep(
            max_x=args.max_x, max_side=args.max_side, algebras=args.algebras
        )
    rows = [
        _row(
            None, b=rep.b_types, x=rep.x_types, a=rep.a_types,
            lhs_is_zero=rep.lhs_is_zero, must_vanish=rep.must_vanish,
            max_word_length=rep.ledger.max_word_length, length_bound=rep.ledger.bound,
            residual_zero=rep.residual.is_zero(), passed=rep.passed,
        )
        for rep in reports
    ]
    failures = sum(1 for r in rows if not r["passed"])
    result = {"patterns": len(rows), "failures": failures}
    return "pass" if failures == 0 else "fail", result, rows


def _cmd_amenability(args):
    from .spectrum import amenability_criterion

    report = amenability_criterion(
        _param(args), args.n_max, warmup=args.warmup, threshold=args.threshold
    )
    rows = [
        _row(None, checkpoint=cp, ratio=r, envelope=e)
        for cp, r, e in zip(report.checkpoints, report.ratios, report.envelope)
    ]
    return report.verdict, _row(report, "liminf_estimate", "note"), rows


def _cmd_cesaro(args):
    from .spectrum import cesaro_sum

    _check_tolerances(args, "tol")
    func, slope = CESARO_PROBES[args.poly]
    value = cesaro_sum(func, args.k)
    limit = math.log(2.0) * slope
    error = abs(value - limit)
    result = _row(None, poly=args.poly, k=args.k, value=value, limit=limit, abs_error=error)
    return "pass" if error <= args.tol else "fail", result, None


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _wide(w):
    return "\0" + w.text


def _json(record):
    """The record as JSON indented by 2, its rows of scalars through one call
    of json's C encoder: indent makes json use its pure-Python encoder, and an
    encoded string holds no raw newline, so the separator falls only between
    fields and a closing brace, separator and opening brace only between rows."""
    rows = record.get("rows")
    text = json.dumps({**record, "rows": 0} if rows else record, indent=2,
                      ensure_ascii=False, default=_wide)
    if rows:
        encode = json.JSONEncoder(ensure_ascii=False, separators=(",\n      ", ": "),
                                  default=_wide).encode
        body = encode(rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        body = '\n  "rows": [\n    {\n      ' + body + "\n    }\n  ]"
        text = text.replace('\n  "rows": 0', body, 1)
    # a _Wide number is written as a marked string, then unquoted
    return re.sub(r'"\\u0000([^"]*)"', r"\1", text) + "\n"


def _emit(args, record):
    """Write the record as JSON, or its rows (else result plus verdict) as CSV."""
    if args.format == "csv":
        import csv
        import io

        rows = record.get("rows") or [dict(record["result"], verdict=record["verdict"])]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row.values()])
        text = buf.getvalue()
    else:
        text = _json(record)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(text)
    else:
        sys.stdout.write(text)


def _error(kind, exc):
    sys.stderr.write(
        json.dumps({"error": {"type": kind, "message": str(exc)}}) + "\n"
    )


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors end on main's JSON error line, not in argparse's exit."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser(argv=()):
    """The parser of every subcommand; given argv, of the one it names first
    alone, if it names one (help before a subcommand, and a missing or unknown
    one, need them all)."""
    parser = _Parser(
        prog="qgs",
        description="Verification suites for spectral, fusion and word-calculus "
        "invariants of the quantum group models.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="json")
    common.add_argument("--output", metavar="PATH", default=None)
    common.add_argument("--precision-bits", type=int, default=None)
    common.add_argument("--timing", action="store_true")

    def suite(name, handler, help, n=None, **defaults):
        """Add a subcommand with the common flags, then --N (required if n is None, else
        defaulting to n) and --q unless n is False; return its add_argument, or a
        no-op for a subcommand argv does not name."""
        if argv and argv[0] != name:
            return lambda *args, **kwargs: None
        p = sub.add_parser(name, help=help, parents=[common])
        if n is not False:
            p.add_argument("--N", type=int, required=n is None, default=n)
            p.add_argument("--q", required=True)
        p.set_defaults(handler=handler, **defaults)
        return p.add_argument

    arg = suite("spectrum", _cmd_spectrum, "tabulate eigenvalues, dimensions and gaps")
    arg("--alpha-max", type=int, required=True)
    arg = suite("fusion", _cmd_fusion, "check dimension sum rules on fusion channels")
    arg("--alpha", type=int, default=None)
    arg("--beta", type=int, default=None)
    arg("--alpha-max", type=int, default=20)
    arg = suite("hs-cert", _cmd_hs_cert, "summability certificate for the HS series")
    arg("--t", required=True)
    arg("--alpha-max", type=int, required=True)
    arg = suite("gap-scan", _cmd_gap_scan, "grid supremum of the second-difference ratio")
    arg("--alpha-max", type=int, required=True)
    arg("--gamma-max", type=int, required=True)
    arg = suite("jw-verify", _cmd_jw_verify, "diagnostics for top-label projections", n=2)
    arg("--n-max", type=int, default=8)
    arg("--residual-tol", type=float, default=1e-9)
    arg("--trace-tol", type=float, default=1e-8,
        help="bound on the relative trace error |tr - [n+1]_q| / [n+1]_q")
    arg = suite("pentagon", _cmd_pentagon, "bracketing defect of double fusions", n=2, constant=2)
    for flag in ("--alpha", "--r", "--s", "--k", "--l"):
        arg(flag, type=int, required=True)
    arg = suite("lemma65", _cmd_lemma65, "weighted commutator-defect suite over sign pairs", n=2)
    arg("--alpha-min", type=int, default=2)
    arg("--alpha-max", type=int, default=6)
    arg = suite("freeprod-verify", _cmd_freeprod,
                "boundary expansion of the word-calculus commutator", n=False)
    for flag in ("--b", "--x", "--a"):
        arg(flag, default=None, metavar="TYPES")
    arg("--max-x", type=int, default=4)
    arg("--max-side", type=int, default=3)
    arg("--algebras", type=int, default=3)
    arg = suite("amenability", _cmd_amenability, "eigenvalue growth against log of count")
    arg("--n-max", type=int, required=True)
    arg("--warmup", type=int, default=1000)
    arg("--threshold", type=float, default=50.0)
    arg = suite("cesaro", _cmd_cesaro, "finite Cesaro-type sum of a named probe", n=False)
    arg("--poly", choices=sorted(CESARO_PROBES), required=True)
    arg("--k", type=int, required=True)
    arg("--tol", type=float, default=1e-3)

    return parser if sub.choices else build_parser()


def main(argv=None):
    previous = _precision._override
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv).parse_args(argv)
        start = time.perf_counter()
        if args.precision_bits is not None:
            set_precision_bits(args.precision_bits)
        precision_bits()  # a bad QGS_PRECISION_BITS is refused before any work
        record = _record(args, *args.handler(args))
        if args.timing:
            record["wall_time_s"] = round(time.perf_counter() - start, 3)
        _emit(args, record)
    except ResourceLimitError as exc:
        _error("resource", exc)
        return 3
    except NumericalDegradationError as exc:
        _error("numerical", exc)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        _error("usage", exc)
        return 2
    finally:
        set_precision_bits(previous)
    return 0 if record["verdict"] in AFFIRMATIVE_VERDICTS else 1


if __name__ == "__main__":
    sys.exit(main())
