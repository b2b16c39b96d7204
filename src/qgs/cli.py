"""Batch command-line front end for the verification suites.

Every subcommand maps one-to-one onto a library operation and adds no
numerics of its own; it parses parameters, runs the operation, and emits
a deterministic CSV table or JSON report.  Numbers are formatted at 12
significant digits, so identical requests at fixed precision produce
byte-identical output; an exact or mpf value beyond the double range is
written as a plain number such as 1.75886302402e+524.  Exit codes: 0
affirmative verdict, 1 verdict failure, 2 usage error, 3 resource limit.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

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
_TOLERANCES = frozenset(
    {"margin", "tail_floor", "residual_tol", "trace_tol", "warmup", "threshold", "tol", "constant"}
)
_DIGITS = Context(prec=12)


class _Wide:
    """A finite number beyond the double range, held as its 12-digit text."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


def _num(x):
    """x at 12 significant digits: a float, or _Wide for a finite Fraction or
    mpf beyond the double range (a float that is already infinite stays so)."""
    try:
        value = float(x)
    except OverflowError:  # a Fraction beyond the double range
        value = math.inf
    if not math.isinf(value) or isinstance(x, float):
        return float(f"{value:.12g}")
    if not isinstance(x, Fraction):  # an mpf, so mpmath is loaded already
        import mpmath

        if mpmath.isinf(x):
            return value
        man, exp = x.man_exp
        x = Fraction(int(man)) * Fraction(2) ** exp
    digits = _DIGITS.divide(Decimal(x.numerator), Decimal(x.denominator))
    return _Wide(format(digits.normalize(_DIGITS), "g"))


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


def _parse_q(text):
    """Map a command-line q to the exact (int/Fraction) or mpf constructor path."""
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError("q = %s has a zero denominator" % text) from None
    try:
        return int(text)
    except ValueError:
        return text


def _param(args):
    from .chebyshev import QParameter

    return QParameter(_parse_q(args.q), args.N)


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


def _check_fusion_grid(q, alpha_max):
    """Refuse a grid with more work than alpha_max = 200 at decimal q (6.1 s at
    q = 0.3, 2-vCPU x86_64): (A+1)(A+2)(A+3)/6 channel sums, weighted at
    q = p/r by (b/600)^2 once their q-dimensions of b = A log2(pr) bits pass
    600 bits, as the gcds of Fraction sums grow like b^2."""
    bits = alpha_max * (q.numerator * q.denominator).bit_length() if isinstance(q, Fraction) else 0
    work = (alpha_max + 1) * (alpha_max + 2) * (alpha_max + 3) * max(bits, 600) ** 2
    if work > 201 * 202 * 203 * 600**2:
        raise ResourceLimitError(f"a fusion grid of --alpha-max {alpha_max} on {bits}-bit "
                                 "q-dimensions takes more work than --alpha-max 200 at decimal q")


def _cmd_fusion(args):
    from .fusion import fusion_check

    param = _param(args)
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    if args.alpha is not None:
        cells = [(args.alpha, args.beta)]
    elif args.alpha_max < 0:
        raise ValueError("--alpha-max must be >= 0")
    else:
        _check_fusion_grid(param.q, args.alpha_max)
        top = args.alpha_max + 1
        cells = [(a, b) for a in range(top) for b in range(a, top)]
    checks = [fusion_check(param, a, b) for a, b in cells]
    rows = [
        _row(c, "alpha", "beta", "channels", "n_product", "n_sum",
             "qdim_product", "qdim_sum", "classical_ok", "quantum_ok")
        for c in checks
    ]
    ok = all(c.classical_ok and c.quantum_ok for c in checks)
    return "pass" if ok else "fail", None, rows


def _cmd_hs_cert(args):
    from .estimates import hs_certificate

    cert = hs_certificate(
        _param(args), args.t, args.alpha_max, margin=args.margin, tail_floor=args.tail_floor
    )
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


def _emit(args, record):
    """Write the record as JSON, or its rows (else result plus verdict) as CSV."""
    if args.format == "csv":
        rows = record.get("rows") or [dict(record["result"], verdict=record["verdict"])]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row.values()])
        text = buf.getvalue()
    else:
        # a _Wide number is written as a marked string, then unquoted
        text = json.dumps(
            record, indent=2, ensure_ascii=False, default=lambda w: "\0" + w.text
        )
        text = re.sub(r'"\\u0000([^"]*)"', r"\1", text) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _error(kind, exc):
    sys.stderr.write(
        json.dumps({"error": {"type": kind, "message": str(exc)}}) + "\n"
    )


def _add_common(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--output", metavar="PATH", default=None)
    parser.add_argument("--precision-bits", type=int, default=None)
    parser.add_argument("--timing", action="store_true")


def _add_model(parser, *, default_n=None):
    if default_n is None:
        parser.add_argument("--N", type=int, required=True)
    else:
        parser.add_argument("--N", type=int, default=default_n)
    parser.add_argument("--q", required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qgs",
        description="Verification suites for spectral, fusion and word-calculus "
        "invariants of the quantum group models.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("spectrum", help="tabulate eigenvalues, dimensions and gaps")
    _add_common(p)
    _add_model(p)
    p.add_argument("--alpha-max", type=int, required=True)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("fusion", help="check dimension sum rules on fusion channels")
    _add_common(p)
    _add_model(p)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--alpha-max", type=int, default=20)
    p.set_defaults(handler=_cmd_fusion)

    p = sub.add_parser("hs-cert", help="summability certificate for the HS series")
    _add_common(p)
    _add_model(p)
    p.add_argument("--t", required=True)
    p.add_argument("--alpha-max", type=int, required=True)
    p.add_argument("--margin", type=float, default=0.01)
    p.add_argument("--tail-floor", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_hs_cert)

    p = sub.add_parser("gap-scan", help="grid supremum of the second-difference ratio")
    _add_common(p)
    _add_model(p)
    p.add_argument("--alpha-max", type=int, required=True)
    p.add_argument("--gamma-max", type=int, required=True)
    p.set_defaults(handler=_cmd_gap_scan)

    p = sub.add_parser("jw-verify", help="diagnostics for top-label projections")
    _add_common(p)
    _add_model(p, default_n=2)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--residual-tol", type=float, default=1e-9)
    p.add_argument(
        "--trace-tol", type=float, default=1e-8,
        help="bound on the relative trace error |tr - [n+1]_q| / [n+1]_q",
    )
    p.set_defaults(handler=_cmd_jw_verify)

    p = sub.add_parser("pentagon", help="bracketing defect of double fusions")
    _add_common(p)
    _add_model(p, default_n=2)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(handler=_cmd_pentagon, constant=2)

    p = sub.add_parser(
        "lemma65", help="weighted commutator-defect suite over sign pairs"
    )
    _add_common(p)
    _add_model(p, default_n=2)
    p.add_argument("--alpha-min", type=int, default=2)
    p.add_argument("--alpha-max", type=int, default=6)
    p.set_defaults(handler=_cmd_lemma65)

    p = sub.add_parser(
        "freeprod-verify",
        help="boundary expansion of the word-calculus commutator",
    )
    _add_common(p)
    p.add_argument("--b", default=None, metavar="TYPES")
    p.add_argument("--x", default=None, metavar="TYPES")
    p.add_argument("--a", default=None, metavar="TYPES")
    p.add_argument("--max-x", type=int, default=4)
    p.add_argument("--max-side", type=int, default=3)
    p.add_argument("--algebras", type=int, default=3)
    p.set_defaults(handler=_cmd_freeprod)

    p = sub.add_parser("amenability", help="eigenvalue growth against log of count")
    _add_common(p)
    _add_model(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--threshold", type=float, default=50.0)
    p.set_defaults(handler=_cmd_amenability)

    p = sub.add_parser("cesaro", help="finite Cesaro-type sum of a named probe")
    _add_common(p)
    p.add_argument("--poly", choices=sorted(CESARO_PROBES), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_cesaro)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = _precision._override
    start = time.perf_counter()
    try:
        if args.precision_bits is not None:
            set_precision_bits(args.precision_bits)
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
