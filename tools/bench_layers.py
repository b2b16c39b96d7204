"""Time the layers of qgs in process and write BENCH_layers.json.

Standard library only, besides qgs.  Each layer runs k times in this
process; the record keeps the best, median and worst of the k wall times
(time.perf_counter) and their spread, (worst - best) / best.  The record
also names the git commit (and whether src differs from it), the Python,
the machine, the load average at the start and the end of the run (read
from /proc/loadavg, where there is one: a loaded machine reads slower
throughout) and the line count of every src/qgs module (as `wc -l` counts
them), so two records can be compared:

    python tools/bench_layers.py                  # k = 5, full sizes
    python tools/bench_layers.py --k 1 --tiny --out /tmp/layers.json
    python tools/bench_layers.py --compare OLD.json

--compare prints each layer's best-of-k time against OLD.json's as a ratio,
new / old, and marks it faster or slower only where the ratio lies outside
both runs' spreads.

Full sizes are the largest the CLI admits on each route: 20,000 labels for
eigenvalues, dimension tables and the HS certificate at decimal q (2,115
at q = 4/11, the exact table ceiling), and numbers near 2^2000 and 2^20000
for the record writer; the isometries of lemma65 to label 104 at q = 0.5,
a 200 x 5 gap grid at q = 0.3 and 4/11, the sum rules of a 40-label fusion
grid, the record of the grid to label 200 at q = 0.3, 1,000 reads of
each of four q by QParameter, the freeprod-verify sweep (4, 3, 3) and its
record, one word pattern with an x of 256 letters, and one of 12 letters in
each of b, x and a that all meet.  --tiny shrinks every size, for a smoke
test.  The compile time of each module is measured with compile() on its
source, which is what a process without a bytecode cache pays.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgs"


def _layers(tiny):
    """(name, callable) for each timed layer."""
    from decimal import Decimal
    from fractions import Fraction

    from qgs import cli, estimates, fusion, spectrum
    from qgs.chebyshev import QParameter

    labels = 200 if tiny else 20000
    wide = (2000, 3000) if tiny else (2000, 20000)
    decimal_q, rational_q = QParameter("0.3", 2), QParameter(Fraction(4, 11), 2)
    one = QParameter("1.0", 2)  # held as q = 1 exactly: the exact a(a+2)/6 route

    def deltas(param, count):
        return lambda: list(islice(spectrum._deltas(param.q), count))

    def table(function, param, top):
        def run():
            fusion._dims.cache_clear()  # a table is built, not read from a cache
            return function(param, top)

        return run

    def nums(values):
        return lambda: [cli._num(x) for x in values]

    fractions = [Fraction(2**e, 3) for e in wide]
    decimals = [Decimal(2) ** e / 3 for e in wide]
    argv = ["spectrum", "--N", "2", "--q", "0.3", "--alpha-max", "20"]
    exact_top = 200 if tiny else 2114  # the exact table ceiling at q = 4/11
    yield "spectrum._deltas.decimal", deltas(decimal_q, labels)
    yield "spectrum._deltas.rational", deltas(rational_q, exact_top + 1)
    yield "spectrum._deltas.one", deltas(one, labels)
    yield "fusion.dims.decimal", table(fusion.dims, decimal_q, labels - 1)
    yield "fusion.dims.rational", table(fusion.dims, rational_q, exact_top)
    yield "spectrum.spectral_rows.decimal", table(spectrum.spectral_rows, decimal_q, labels - 1)
    yield "estimates.hs_certificate", lambda: estimates.hs_certificate(
        QParameter("0.5", 2), "0.5", labels - 1)
    yield "cli._num.float", nums([1 / 3] * 1000)
    yield "cli._num.fraction", nums([Fraction(1, 3)] * 1000)
    yield "cli._num.decimal", nums([Decimal(1) / 3] * 1000)
    for e, x, d in zip(wide, fractions, decimals):
        yield f"cli._num.fraction_2^{e}", nums([x])
        yield f"cli._num.decimal_2^{e}", nums([d])
    yield "cli.build_parser+parse_args", lambda: cli.build_parser(argv).parse_args(argv)
    yield "chebyshev.QParameter", _reads(tiny)
    yield from _kernel_layers(tiny)


def _reads(tiny):
    """QParameter at 128 bits on "0.3", a literal of the 41 digits that hold
    128 bits, one of 4,000 digits (rounded to 41) and a float, each read
    1,000 times (10 with --tiny)."""
    import random

    from qgs.chebyshev import QParameter
    from qgs.precision import set_precision_bits

    rng = random.Random(0)
    qs = ["0.3", "0." + "".join(rng.choice("0123456789") for _ in range(41)),
          "0." + "".join(rng.choice("0123456789") for _ in range(4000)), 0.3]
    reads = 10 if tiny else 1000

    def run():
        set_precision_bits(128)
        try:
            return [QParameter(q, 2) for q in qs for _ in range(reads)]
        finally:
            set_precision_bits(None)

    return run


def _kernel_layers(tiny):
    """The kernels under lemma65, freeprod-verify, gap-scan and fusion, and the
    record writer on the largest fusion grid."""
    from decimal import localcontext
    from fractions import Fraction

    from qgs import cli, estimates, freewords, fusion, templieb
    from qgs.chebyshev import QParameter, _context

    decimal_q, rational_q = QParameter("0.3", 2), QParameter(Fraction(4, 11), 2)
    # lemma65 --q 0.5 --alpha-max 104, its largest: every isometry its estimates read
    half, top = QParameter("0.5", 2), 8 if tiny else 104
    cases = [(a, k, l) for a in range(1, top + 1) for k, l in templieb._SIGNS
             if a + min(k, l, k + l) >= 0]
    labels = {labels for a, k, l in cases for part in templieb._PARTS[k, l]
              for labels in templieb._pentagon_isometries(a, 1, 1, *part)}
    bits = templieb._bits(half, top + 2)
    tables = templieb._tables(half, bits, labels)

    def closed_forms():
        with localcontext(_context(bits)):
            return [templieb._closed_form(tables, *iso) for iso in labels]

    yield "templieb._tables", lambda: templieb._tables(half, bits, labels)
    yield "templieb._closed_form", closed_forms
    # one pattern of the (4, 3, 3) sweep: x of 4 letters, b and a of 3, 3 algebras
    pattern = ((0, 1), (2, 0, 1), (0, 2)) if tiny else ((0, 1, 2), (0, 1, 0, 2), (1, 2, 0))
    yield "freewords._verify", lambda: freewords._verify(freewords._Table(), *pattern)
    # one pattern whose letters all meet, so it is expanded, not decided by locality:
    # b and a are x reversed, 12 letters each over 3 algebras
    meeting_x = tuple(i % 3 for i in range(3 if tiny else 12))
    meeting = (meeting_x[::-1], meeting_x, meeting_x[::-1])
    yield "freewords._verify.meeting", lambda: freewords._verify(freewords._Table(), *meeting)
    # the sweep of freeprod-verify --max-x 4 --max-side 3 --algebras 3, and its record
    sweep = (2, 2, 3) if tiny else (4, 3, 3)
    yield "freewords.expansion_sweep", lambda: freewords.expansion_sweep(
        max_x=sweep[0], max_side=sweep[1], algebras=sweep[2])
    argv = ["freeprod-verify", "--max-x", str(sweep[0]), "--max-side", str(sweep[1]),
            "--algebras", str(sweep[2]), "--output", os.devnull]
    freeprod_args = cli.build_parser(argv).parse_args(argv)
    reports = freewords.expansion_sweep(max_x=sweep[0], max_side=sweep[1], algebras=sweep[2])

    def freeprod_record():
        rows = [cli._row(None, b=rep.b_types, x=rep.x_types, a=rep.a_types,
                         lhs_is_zero=rep.lhs_is_zero, must_vanish=rep.must_vanish,
                         max_word_length=rep.ledger.max_word_length,
                         length_bound=rep.ledger.bound, residual_zero=rep.residual.is_zero(),
                         passed=rep.passed) for rep in reports]
        failures = sum(1 for row in rows if not row["passed"])
        result = {"patterns": len(rows), "failures": failures}
        verdict = "pass" if failures == 0 else "fail"
        cli._emit(freeprod_args, cli._record(freeprod_args, verdict, result, rows))

    yield "cli._row+_emit.freeprod", freeprod_record

    # every cell of a gap-scan --alpha-max 200 --gamma-max 5, tables built too
    alpha_max, gamma_max = (20, 2) if tiny else (200, 5)
    grid = [(a, b, g) for a in range(alpha_max + 1)
            for b in range(max(0, a - 2 * gamma_max), min(alpha_max, a + 2 * gamma_max) + 1)
            for g in range(max(-gamma_max, -a), min(gamma_max, b) + 1)]

    def cells(param):
        def run():
            ratio = estimates._cells(param, alpha_max + gamma_max).ratio
            return [ratio(*cell) for cell in grid]

        return run

    yield "estimates._FloatCells.decimal", cells(decimal_q)
    yield "estimates._ExactCells.rational", cells(rational_q)
    edge = 8 if tiny else 40
    yield "fusion._fusion_checks", lambda: fusion._fusion_checks(
        decimal_q, [(a, b) for a in range(edge + 1) for b in range(a, edge + 1)])

    # the record of fusion --N 2 --q 0.3 --alpha-max 200, written to the null device
    argv = ["fusion", "--N", "2", "--q", "0.3", "--alpha-max", "20" if tiny else "200",
            "--output", os.devnull]
    args = cli.build_parser(argv).parse_args(argv)
    checks = fusion.fusion_grid(decimal_q, args.alpha_max)

    def record():
        rows = [cli._row(c, "alpha", "beta", "channels", "n_product", "n_sum", "qdim_product",
                         "qdim_sum", "classical_ok", "quantum_ok") for c in checks]
        cli._emit(args, cli._record(args, "pass", None, rows))

    yield "cli._row+_emit.fusion", record


def _compiles():
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        yield f"compile.{path.stem}", lambda s=source, p=str(path): compile(s, p, "exec")


def _time(function, k):
    times = []
    for _ in range(k):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    best, worst = min(times), max(times)
    return {"best_s": best, "median_s": statistics.median(times), "worst_s": worst,
            "spread": (worst - best) / best if best else 0.0}


def _git(*args):
    """git's output in the repository, or None where git or the repository is missing."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _loadavg():
    """The 1, 5 and 15 minute load averages, or None where /proc/loadavg is missing."""
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _compare(old, new):
    """One line per layer of both records: best-of-k times and their ratio new / old,
    marked only where the ratio lies outside both spreads."""
    lines = []
    for name, row in new["layers"].items():
        before = old["layers"].get(name)
        if before is None or not before["best_s"]:
            continue
        ratio = row["best_s"] / before["best_s"]
        spread = max(row["spread"], before["spread"])
        mark = "slower" if ratio > 1 + spread else "faster" if ratio * (1 + spread) < 1 else ""
        lines.append(f"{name:34s} {before['best_s'] * 1e3:10.3f} -> {row['best_s'] * 1e3:10.3f} ms"
                     f"  x{ratio:6.3f}  {mark}".rstrip())
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="Per-layer timings of qgs, in process.")
    parser.add_argument("--k", type=int, default=5, help="runs per layer (best of k)")
    parser.add_argument("--tiny", action="store_true", help="small sizes, for a smoke test")
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    parser.add_argument("--compare", metavar="OLD.json", default=None,
                        help="print each layer's ratio to the best-of-k times in OLD.json")
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("--k must be >= 1")
    old = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else None
    sys.path.insert(0, str(ROOT / "src"))
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted(PACKAGE.glob("*.py"))}
    load = _loadavg()
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "k": args.k,
        "sizes": "tiny" if args.tiny else "full",
        "src_lines": {**lines, "total": sum(lines.values())},
        "layers": {name: _time(f, args.k) for name, f in [*_layers(args.tiny), *_compiles()]},
    }
    record["loadavg"] = {"start": load, "end": _loadavg()}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if old is not None:
        print("\n".join(_compare(old, record)))
        return
    for name, row in record["layers"].items():
        print(f"{name:34s} best {row['best_s'] * 1e3:10.3f} ms  spread {row['spread']:.2f}")


if __name__ == "__main__":
    main()
