"""Workload generators: seeded, stratified blocks of `qgs` CLI jobs.

A workload is an endless sequence of blocks.  Every block of a workload
has the same slots (suite, parameter stratum, size ladder).  Sizes step
through each slot's ladder with the block index; the seed chooses q, N
and the other free values inside each slot, and the order of the jobs.  A run
executes a fixed number of whole blocks, so the mix of work and the share
of jobs that hit a known defect are the same for every seed and every
commit, while the inputs differ.

Strata are placed away from the edges of known defect regions: a slot
either always lies inside such a region (the defect shows in every block)
or never does.  This keeps `fail_ratio` steady across seeds without
hiding any defect.  The slots that hit a defect today are marked in
`Job.slot` with a `defect:` prefix and described in README.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("spectral-float", "spectral-exact", "tl-chain", "word-sweep")

# Nominal wall seconds of one block at the commit that defined the
# benchmark, on a 2-vCPU x86_64 machine.  A run of S seconds executes
# round(S / this) blocks, so the amount of work is fixed by S and does not
# depend on how fast the code under test is.
BLOCK_SECONDS = {
    "spectral-float": 6.0,
    "spectral-exact": 9.0,
    "tl-chain": 4.5,
    "word-sweep": 7.5,
}


def block_count(workload, seconds):
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


# Placeholder for a directory that never exists; run.py substitutes a
# path inside the checkout.
MISSING_DIR = "{missing}"


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the oracle expects of it.

    ``expect`` is "record" when the inputs are valid and the suite must
    produce a record, or "error" when the inputs must end in a JSON error
    (exit 2 or 3) or a record that passes its suite oracle.
    ``verdict`` is the verdict the mathematics fixes, or None when only a
    self-consistency check applies.
    """

    job_id: str
    slot: str
    argv: tuple
    expect: str = "record"
    verdict: str | None = None

    @property
    def suite(self):
        return self.argv[0]


def q0(n):
    """Smallest positive root of x^2 - n x + 1 (1 at n = 2)."""
    return (n - math.sqrt(n * n - 4)) / 2


def _decimal_q(rng, lo, hi):
    return f"{rng.uniform(lo, hi):.4f}"


def _rational_q(rng, lo, hi, denominators=range(2, 13)):
    """A reduced fraction p/r with r in denominators and lo <= p/r <= hi."""
    choices = sorted(
        {Fraction(p, r) for r in denominators for p in range(1, r) if lo <= p / r <= hi}
    )
    choices = [f for f in choices if f.denominator in denominators]
    f = rng.choice(choices)
    return f"{f.numerator}/{f.denominator}"


def _pick_n(rng, q_text):
    """An N admissible for q (q + 1/q >= N), at most 5 to keep dimension
    integers to a few hundred digits."""
    q = float(Fraction(q_text))
    return rng.randint(2, max(2, min(5, int(q + 1 / q + 1e-12))))


class _Block:
    """Collects the jobs of one block with sequential ids."""

    def __init__(self, index):
        self.index = index
        self.jobs = []

    def add(self, slot, argv, **kw):
        job_id = f"b{self.index}.{len(self.jobs)}"
        self.jobs.append(Job(job_id, slot, tuple(str(a) for a in argv), **kw))

    def step(self, ladder):
        """The ladder value for this block: sizes cycle with the block index,
        not with the seed, so every run of n blocks has the same sizes."""
        return ladder[self.index % len(ladder)]


def _spectral_block(block, rng, exact):
    """Slots shared by spectral-float (decimal q) and spectral-exact
    (rational q); only the arithmetic of q differs."""

    def make_q(lo, hi):
        return _rational_q(rng, lo, hi) if exact else _decimal_q(rng, lo, hi)

    # The README size.  Its cost grows with the working precision, set by
    # log(1/q), and for exact q with the digits of q, so q comes from a
    # narrow bin per block (denominator 11 for exact q).
    if exact:
        q = block.step(("4/11", "5/11", "6/11"))
    else:
        q = _decimal_q(rng, *block.step(((0.30, 0.34), (0.44, 0.48), (0.56, 0.60))))
    block.add("gap-scan.large", ["gap-scan", "--N", _pick_n(rng, q), "--q", q,
              "--alpha-max", 200, "--gamma-max", 5])
    q = make_q(0.05, 0.95)
    alpha_max, gamma_max = block.step(((20, 1), (50, 2), (80, 3)))
    block.add("gap-scan.small", ["gap-scan", "--N", _pick_n(rng, q), "--q", q,
              "--alpha-max", alpha_max, "--gamma-max", gamma_max])

    # Clearly summable: (q e^-t / q0)^2 <= 0.73, so the series decays
    # well inside alpha-max >= 100 terms.
    n = rng.randint(2, 5)
    q = make_q(0.1 * q0(n), 0.85 * q0(n))
    block.add("hs-cert.finite", ["hs-cert", "--N", n, "--q", q,
              "--t", f"{rng.uniform(0.0, 1.0):.3f}", "--alpha-max", block.step((100, 200, 300))],
              verdict="finite")
    if exact:
        # The only rational Kac point: N = 2, q = 1.
        kac = ["--N", 2, "--q", "1"]
    else:
        n = rng.randint(3, 5)
        kac = ["--N", n, "--q", f"{q0(n):.12f}"]
    block.add("hs-cert.kac", ["hs-cert"] + kac + ["--t", "0",
              "--alpha-max", block.step((300, 200, 100))], verdict="divergent")

    q = make_q(0.05, 0.95)
    block.add("spectrum.small", ["spectrum", "--N", _pick_n(rng, q), "--q", q,
              "--alpha-max", block.step((20, 60, 100))], verdict="pass")
    q = make_q(0.2, 0.95)
    block.add("spectrum.medium", ["spectrum", "--N", _pick_n(rng, q), "--q", q,
              "--alpha-max", block.step((150, 225, 300))], verdict="pass")
    # [alpha+1]_q exceeds the float range for every draw of this stratum.
    q = make_q(0.1, 0.3)
    block.add("defect:spectrum.overflow", ["spectrum", "--N", _pick_n(rng, q), "--q", q,
              "--alpha-max", block.step((700, 750, 800))], verdict="pass")

    q = make_q(0.05, 0.95)
    block.add("fusion.grid", ["fusion", "--N", _pick_n(rng, q), "--q", q,
              "--alpha-max", block.step((10, 25, 40))], verdict="pass")
    q = make_q(0.1, 0.3)
    alpha, beta = block.step(((320, 400), (360, 360), (400, 320)))
    block.add("defect:fusion.overflow", ["fusion", "--N", _pick_n(rng, q), "--q", q,
              "--alpha", alpha, "--beta", beta], verdict="pass")

    n = rng.randint(2, 5)
    q = make_q(0.05 * q0(n), q0(n) * 0.95)
    block.add("amenability.below", ["amenability", "--N", n, "--q", q,
              "--n-max", 10 ** rng.randint(4, 7)])
    block.add("amenability.free", ["amenability", "--N", 2, "--q", "1" if exact else "1.0",
              "--n-max", rng.randint(10 ** 6, 10 ** 7)])


def _spectral_float(block, rng):
    _spectral_block(block, rng, exact=False)
    # ROADMAP 4d: an underflowing q must end in a usage error.
    suite = rng.choice(["spectrum", "fusion"])
    block.add("defect:edge.tiny-q", [suite, "--N", 2, "--q", "1e-400",
              "--alpha-max", rng.randint(5, 30)], expect="error")


def _spectral_exact(block, rng):
    _spectral_block(block, rng, exact=True)
    # ROADMAP 4d: a zero denominator must end in a usage error.
    suite = rng.choice(["spectrum", "fusion", "gap-scan"])
    argv = [suite, "--N", 2, "--q", "1/0", "--alpha-max", rng.randint(10, 30)]
    if suite == "gap-scan":
        argv += ["--gamma-max", 1]
    block.add("defect:edge.zero-denominator", argv, expect="error")


def _tl_chain(block, rng):
    # jw-verify: the absolute trace tolerance fails from n ~ 10 on at
    # q <= 0.2 (ROADMAP 4c); the other strata stay clear of that edge.
    block.add("defect:jw-verify.small-q", ["jw-verify", "--q", _decimal_q(rng, 0.05, 0.2),
              "--n-max", block.step((11, 12, 13, 14))], verdict="pass")
    block.add("jw-verify.mid-q", ["jw-verify", "--q", _decimal_q(rng, 0.3, 0.45),
              "--n-max", block.step((8, 9, 10, 11))], verdict="pass")
    for ladder in ((8, 10, 12, 14), (9, 11, 13, 14)):
        block.add("jw-verify.large-q", ["jw-verify", "--q", _decimal_q(rng, 0.5, 0.95),
                  "--n-max", block.step(ladder)], verdict="pass")
    # lemma65 and pentagon lose the q^alpha reference to roundoff once
    # q^alpha nears 1e-16: from alpha 9 on at q <= 0.012 (and from alpha
    # 12 on at q ~ 0.05).  The tiny-q strata sit well inside that region,
    # the others well outside it.
    block.add("lemma65.large", ["lemma65", "--q", _decimal_q(rng, 0.08, 0.95),
              "--alpha-max", 11], verdict="pass")
    block.add("defect:lemma65.tiny-q", ["lemma65", "--q", _decimal_q(rng, 0.005, 0.012),
              "--alpha-max", 9], verdict="pass")
    block.add("lemma65.small", ["lemma65", "--q", _decimal_q(rng, 0.05, 0.95),
              "--alpha-max", block.step((3, 4, 5, 6, 7, 8))], verdict="pass")
    # Pentagon memory depends on (alpha, k, l) at 14 sites (0.3-1.1 GB), so
    # the 14-site slot fixes k = l = -1 (about 0.3 GB, as lemma65 at 11)
    # and the drawn slots stay at 12 sites or fewer.
    block.add("pentagon.wide", ["pentagon", "--q", _decimal_q(rng, 0.1, 0.95),
              "--alpha", 12, "--r", 1, "--s", 1, "--k", -1, "--l", -1], verdict="pass")
    alpha = block.step((2, 4, 6, 8, 10))
    k, l = rng.choice([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    block.add("pentagon.unit", ["pentagon", "--q", _decimal_q(rng, 0.1, 0.95),
              "--alpha", alpha, "--r", 1, "--s", 1, "--k", k, "--l", l], verdict="pass")
    block.add("defect:pentagon.tiny-q", ["pentagon", "--q", _decimal_q(rng, 0.005, 0.012),
              "--alpha", 9, "--r", 1, "--s", 1, "--k", 1, "--l", rng.choice([1, -1])],
              verdict="pass")
    block.add("pentagon.general", ["pentagon", "--q", _decimal_q(rng, 0.1, 0.95)]
              + _general_pentagon(rng))
    block.add("edge.strands", ["jw-verify", "--q", _decimal_q(rng, 0.3, 0.9),
              "--n-max", rng.randint(15, 40)], expect="error")


def _general_pentagon(rng):
    """Labels with valid channels for both bracketings and at most 12 sites."""
    while True:
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        alpha = rng.randint(1, 12 - r - s)
        k = rng.choice(range(-s, s + 1, 2))
        l = rng.choice(range(-r, r + 1, 2))
        if min(alpha + k, alpha + l, alpha + k + l) < 0:
            continue
        channels_ok = (
            abs(alpha - r) <= alpha + l <= alpha + r
            and abs(s - alpha - l) <= alpha + k + l <= s + alpha + l
            and abs(s - alpha) <= alpha + k <= s + alpha
            and abs(alpha + k - r) <= alpha + k + l <= alpha + k + r
        )
        if channels_ok:
            return ["--alpha", alpha, "--r", r, "--s", s, "--k", k, "--l", l]


# Sweep configurations of similar cost within each class: (4, 2, 3) and
# (2, 3, 3) check 771 and 811 patterns, (3, 2, 3) and (2, 2, 3) 371 and 171.
SMALL_SWEEPS = ((3, 2, 3), (2, 2, 3))
MEDIUM_SWEEPS = ((4, 2, 3), (2, 3, 3))


def _types(rng, length, algebras):
    out = []
    for _ in range(length):
        out.append(rng.choice([t for t in range(algebras) if not out or t != out[-1]]))
    return ",".join(map(str, out))


def _single_pattern(rng):
    algebras = rng.randint(2, 3)
    return ["freeprod-verify",
            "--b", _types(rng, rng.randint(0, 3), algebras),
            "--x", _types(rng, rng.randint(0, 4), algebras),
            "--a", _types(rng, rng.randint(0, 3), algebras)]


def _sweep(cfg):
    x, side, alg = cfg
    return ["freeprod-verify", "--max-x", x, "--max-side", side, "--algebras", alg]


def _word_sweep(block, rng):
    block.add("freeprod.sweep-large", _sweep((4, 3, 3)), verdict="pass")
    block.add("freeprod.sweep-medium", _sweep(block.step(MEDIUM_SWEEPS)), verdict="pass")
    block.add("freeprod.sweep-small", _sweep(block.step(SMALL_SWEEPS)), verdict="pass")
    for _ in range(5):
        block.add("freeprod.single", _single_pattern(rng), verdict="pass")
    # ROADMAP 3: an unwritable --output path must end in a JSON error.
    block.add("defect:edge.output-path", _single_pattern(rng)
              + ["--output", MISSING_DIR + "/record.json"], expect="error")


_BUILDERS = {
    "spectral-float": _spectral_float,
    "spectral-exact": _spectral_exact,
    "tl-chain": _tl_chain,
    "word-sweep": _word_sweep,
}


def blocks(workload, seed):
    """Yield the blocks of a workload forever; the same seed gives the
    same sequence."""
    build = _BUILDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        block = _Block(index)
        build(block, rng)
        rng.shuffle(block.jobs)
        yield block.jobs
        index += 1
