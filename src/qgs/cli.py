"""Batch command-line front end for the verification suites.

Every subcommand maps one-to-one onto a library operation and adds no
numerics of its own; it parses parameters, runs the operation, and emits
a deterministic CSV table or JSON report.  Floats are formatted at 12
significant digits, so identical requests at fixed precision produce
byte-identical output.  Exit codes: 0 affirmative verdict, 1 verdict
failure, 2 usage error, 3 resource limit.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import precision as _precision
from .chebyshev import QParameter
from .errors import NumericalDegradationError, ResourceLimitError
from .estimates import gap_constant_scan, hs_certificate
from .freewords import expansion_sweep, verify_boundary_expansion
from .fusion import fuse, fusion_check
from .precision import precision_bits, set_precision_bits
from .spectrum import amenability_criterion, cesaro_sum, spectral_rows, spectral_stream
from .templieb import commutator_suite, jw_report, pentagon_bound, pentagon_defect

AFFIRMATIVE_VERDICTS = frozenset({"pass", "finite", "divergent", "satisfied"})

CESARO_PROBES = {
    "x": (lambda s: s, 1.0),
    "x2": (lambda s: s * s, 0.0),
    "exp2x": (lambda s: math.exp(2.0 * s), 2.0),
}


def _round12(x):
    return float(f"{float(x):.12g}")


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
    return QParameter(_parse_q(args.q), args.N)


def _parse_pattern(text):
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _record(suite, inputs, *, tolerances=None, result=None, rows=None, verdict):
    record = {
        "suite": suite,
        "inputs": inputs,
        "precision_bits": precision_bits(),
    }
    if tolerances is not None:
        record["tolerances"] = tolerances
    if result is not None:
        record["result"] = result
    if rows is not None:
        record["rows"] = rows
    record["verdict"] = verdict
    return record


def _cmd_spectrum(args):
    param = _param(args)
    rows = [
        {
            "alpha": r.alpha,
            "n": r.n,
            "qdim": _round12(r.qdim),
            "delta": _round12(r.delta),
            "gap": _round12(r.gap),
        }
        for r in spectral_rows(param, args.alpha_max)
    ]
    inputs = {"N": args.N, "q": args.q, "alpha_max": args.alpha_max}
    record = _record("spectrum", inputs, rows=rows, verdict="pass")
    return record, rows, ["alpha", "n", "qdim", "delta", "gap"]


def _cmd_fusion(args):
    param = _param(args)
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    if args.alpha is not None:
        cells = [(args.alpha, args.beta)]
    else:
        cells = [
            (a, b)
            for a in range(args.alpha_max + 1)
            for b in range(a, args.alpha_max + 1)
        ]
    rows = []
    ok = True
    for a, b in cells:
        check = fusion_check(param, a, b)
        ok = ok and check.classical_ok and check.quantum_ok
        rows.append(
            {
                "alpha": a,
                "beta": b,
                "channels": ";".join(str(g) for g in check.channels),
                "n_product": check.n_product,
                "n_sum": check.n_sum,
                "qdim_product": _round12(check.qdim_product),
                "qdim_sum": _round12(check.qdim_sum),
                "classical_ok": check.classical_ok,
                "quantum_ok": check.quantum_ok,
            }
        )
    inputs = {
        "N": args.N,
        "q": args.q,
        "alpha": args.alpha,
        "beta": args.beta,
        "alpha_max": args.alpha_max,
    }
    record = _record("fusion", inputs, rows=rows, verdict="pass" if ok else "fail")
    fields = [
        "alpha", "beta", "channels", "n_product", "n_sum",
        "qdim_product", "qdim_sum", "classical_ok", "quantum_ok",
    ]
    return record, rows, fields


def _cmd_hs_cert(args):
    param = _param(args)
    cert = hs_certificate(
        param, args.t, args.alpha_max,
        margin=args.margin, tail_floor=args.tail_floor,
    )
    rows = [
        {
            "alpha": a,
            "term": _round12(term),
            "compressed_term": _round12(comp),
            "partial_sum": _round12(acc),
        }
        for a, (term, comp, acc) in enumerate(
            zip(cert.terms, cert.compressed_terms, cert.partial_sums)
        )
    ]
    inputs = {"N": args.N, "q": args.q, "t": args.t, "alpha_max": args.alpha_max}
    tolerances = {"margin": args.margin, "tail_floor": args.tail_floor}
    result = {"ratio_value": _round12(cert.ratio_value)}
    record = _record(
        "hs-cert", inputs, tolerances=tolerances, result=result, rows=rows,
        verdict=cert.verdict,
    )
    return record, rows, ["alpha", "term", "compressed_term", "partial_sum"]


def _cmd_gap_scan(args):
    param = _param(args)
    scan = gap_constant_scan(param, args.alpha_max, args.gamma_max)
    verdict = "finite" if math.isfinite(scan.sup_ratio) and scan.stable else "fail"
    result = {
        "sup_ratio": _round12(scan.sup_ratio),
        "argmax_alpha": scan.argmax[0],
        "argmax_beta": scan.argmax[1],
        "argmax_gamma": scan.argmax[2],
        "window_low_sup": _round12(scan.window_low_sup),
        "window_high_sup": _round12(scan.window_high_sup),
        "stable": scan.stable,
    }
    inputs = {
        "N": args.N,
        "q": args.q,
        "alpha_max": args.alpha_max,
        "gamma_max": args.gamma_max,
    }
    record = _record("gap-scan", inputs, result=result, verdict=verdict)
    csv_rows = [dict(result, verdict=verdict)]
    fields = list(result) + ["verdict"]
    return record, csv_rows, fields


def _cmd_jw_verify(args):
    param = _param(args)
    rows = []
    ok = True
    for row in jw_report(param, args.n_max):
        within = (
            row.idempotency <= args.residual_tol
            and row.annihilation <= args.residual_tol
            and row.eig_residual <= args.residual_tol
            and row.trace_rel_error <= args.trace_tol
        )
        ok = ok and within
        rows.append(
            {
                "n": row.n,
                "rank": row.rank,
                "idempotency": _round12(row.idempotency),
                "annihilation": _round12(row.annihilation),
                "trace_error": _round12(row.trace_error),
                "trace_rel_error": _round12(row.trace_rel_error),
                "eig_residual": _round12(row.eig_residual),
                "ok": within,
            }
        )
    inputs = {"N": args.N, "q": args.q, "n_max": args.n_max}
    tolerances = {"residual_tol": args.residual_tol, "trace_tol": args.trace_tol}
    record = _record(
        "jw-verify", inputs, tolerances=tolerances, rows=rows,
        verdict="pass" if ok else "fail",
    )
    fields = [
        "n", "rank", "idempotency", "annihilation", "trace_error",
        "trace_rel_error", "eig_residual", "ok",
    ]
    return record, rows, fields


def _cmd_pentagon(args):
    param = _param(args)
    defect = pentagon_defect(param, args.alpha, args.r, args.s, args.k, args.l)
    bound = float(pentagon_bound(param, args.alpha, args.r, args.k))
    ratio = defect / bound
    verdict = "pass" if ratio <= 2 + 1e-9 else "fail"
    result = {
        "defect": _round12(defect),
        "bound": _round12(bound),
        "ratio": _round12(ratio),
    }
    inputs = {
        "N": args.N, "q": args.q, "alpha": args.alpha,
        "r": args.r, "s": args.s, "k": args.k, "l": args.l,
    }
    record = _record(
        "pentagon", inputs, tolerances={"constant": 2}, result=result,
        verdict=verdict,
    )
    csv_rows = [dict(result, verdict=verdict)]
    return record, csv_rows, ["defect", "bound", "ratio", "verdict"]


def _cmd_lemma65(args):
    if args.alpha_min < 1 or args.alpha_max < args.alpha_min:
        raise ValueError("need 1 <= alpha-min <= alpha-max")
    param = _param(args)
    rows = []
    ok = True
    for est in commutator_suite(param, range(args.alpha_min, args.alpha_max + 1)):
        ok = ok and est.passed
        rows.append(
            {
                "alpha": est.alpha,
                "k": est.k,
                "l": est.l,
                "weighted_defect": _round12(est.weighted_defect),
                "reference": _round12(est.reference),
                "ratio": _round12(est.ratio),
                "constant": est.constant,
                "passed": est.passed,
            }
        )
    inputs = {
        "N": args.N, "q": args.q,
        "alpha_min": args.alpha_min, "alpha_max": args.alpha_max,
    }
    record = _record(
        "lemma65", inputs, rows=rows, verdict="pass" if ok else "fail",
    )
    fields = [
        "alpha", "k", "l", "weighted_defect", "reference", "ratio",
        "constant", "passed",
    ]
    return record, rows, fields


def _freeprod_row(report):
    return {
        "b": ";".join(str(t) for t in report.b_types),
        "x": ";".join(str(t) for t in report.x_types),
        "a": ";".join(str(t) for t in report.a_types),
        "lhs_is_zero": report.lhs_is_zero,
        "must_vanish": report.must_vanish,
        "max_word_length": report.ledger.max_word_length,
        "length_bound": report.ledger.bound,
        "residual_zero": report.residual.is_zero(),
        "passed": report.passed,
    }


def _cmd_freeprod(args):
    single = args.b is not None or args.x is not None or args.a is not None
    if single:
        reports = [
            verify_boundary_expansion(
                _parse_pattern(args.b),
                _parse_pattern(args.x),
                _parse_pattern(args.a),
                max_x=args.max_x,
                max_side=args.max_side,
            )
        ]
    else:
        reports = expansion_sweep(
            max_x=args.max_x, max_side=args.max_side, algebras=args.algebras
        )
    rows = [_freeprod_row(rep) for rep in reports]
    failures = sum(1 for rep in reports if not rep.passed)
    inputs = {
        "b": args.b, "x": args.x, "a": args.a,
        "max_x": args.max_x, "max_side": args.max_side,
        "algebras": args.algebras,
    }
    result = {"patterns": len(reports), "failures": failures}
    record = _record(
        "freeprod-verify", inputs, result=result, rows=rows,
        verdict="pass" if failures == 0 else "fail",
    )
    fields = [
        "b", "x", "a", "lhs_is_zero", "must_vanish", "max_word_length",
        "length_bound", "residual_zero", "passed",
    ]
    return record, rows, fields


def _cmd_amenability(args):
    param = _param(args)
    report = amenability_criterion(
        spectral_stream(param), args.n_max,
        warmup=args.warmup, threshold=args.threshold,
    )
    rows = [
        {"checkpoint": cp, "ratio": _round12(r), "envelope": _round12(e)}
        for cp, r, e in zip(report.checkpoints, report.ratios, report.envelope)
    ]
    inputs = {"N": args.N, "q": args.q, "n_max": args.n_max}
    tolerances = {"warmup": args.warmup, "threshold": args.threshold}
    result = {
        "liminf_estimate": _round12(report.liminf_estimate),
        "note": report.note,
    }
    record = _record(
        "amenability", inputs, tolerances=tolerances, result=result, rows=rows,
        verdict=report.verdict,
    )
    return record, rows, ["checkpoint", "ratio", "envelope"]


def _cmd_cesaro(args):
    if args.k < 1:
        raise ValueError("--k must be >= 1")
    func, slope = CESARO_PROBES[args.poly]
    value = cesaro_sum(func, args.k)
    limit = math.log(2.0) * slope
    error = abs(value - limit)
    verdict = "pass" if error <= args.tol else "fail"
    result = {
        "poly": args.poly,
        "k": args.k,
        "value": _round12(value),
        "limit": _round12(limit),
        "abs_error": _round12(error),
    }
    inputs = {"poly": args.poly, "k": args.k}
    record = _record(
        "cesaro", inputs, tolerances={"tol": args.tol}, result=result,
        verdict=verdict,
    )
    csv_rows = [dict(result, verdict=verdict)]
    return record, csv_rows, list(result) + ["verdict"]


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def _emit(args, record, csv_rows, fields):
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields)
        for row in csv_rows:
            writer.writerow([_csv_cell(row[f]) for f in fields])
        text = buf.getvalue()
    else:
        text = json.dumps(record, indent=2, ensure_ascii=False) + "\n"
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
    p.set_defaults(handler=_cmd_pentagon)

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
        record, csv_rows, fields = args.handler(args)
        if args.timing:
            record["wall_time_s"] = round(time.perf_counter() - start, 3)
        _emit(args, record, csv_rows, fields)
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
