"""Formal calculus of reduced words over a free product of state-equipped algebras.

Words are tuples of letters; a letter carries an algebra label, a flat
tuple of primitive factors, and a circled flag meaning the letter has
been mean-centered.  Primitive factors are tagged tuples: ("a", name,
starred) for an atom, ("g", factors) for a letter wrapped by the formal
generator.  Atoms are assumed mean-zero, so the scalar symbol phi of a
single atom is structurally zero; every other phi is an opaque symbol
and expressions are polynomials in these symbols with int coefficients
(an exact Fraction only after a non-integer scalar).  The junction
rewrite for same-algebra neighbours u, v with contents C, D is

    u v = (CD) circled + phi(CD) 1 - [u circled] phi(C) v
          - [v circled] phi(D) u - [both circled] phi(C) phi(D) 1

which keeps every letter of a normal form mean-zero or a bare generator
wrap, and makes normal forms unique regardless of rewrite order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import ResourceLimitError

# expansion_sweep's ceilings (2-vCPU x86_64): (6, 3, 3), 15,331 patterns,
# takes about 4.6 s.  A pattern of k, n and m letters in b, x and a costs
# about 0.4-1.3 us per unit of _pattern_work(k, n, m) = (k+1)(n+1)(m+1)(k+n+m):
# 0.4 us over the (6, 3, 3) and (4, 3, 4) sweeps (1.07e7 and 9.9e6 units),
# 0.9 us for an x of 256 letters alone, 1.3 us for a b and an a of 30 each.
# MAX_LETTER_WORK holds for a sweep's sum and for a single pattern alike.
MAX_SWEEP_PATTERNS = 20_000
MAX_LETTER_WORK = 15 * 10**6


class Letter(NamedTuple):
    algebra: object
    factors: tuple
    circled: bool


class PhiSymbol(NamedTuple):
    algebra: object
    factors: tuple


def atom(algebra, name, star=False):
    """A single mean-zero letter of the given algebra."""
    return Letter(algebra, (("a", str(name), bool(star)),), False)


def word(*letters):
    """A reduced word: adjacent letters must carry distinct algebra labels."""
    for lt in letters:
        if not isinstance(lt, Letter):
            raise TypeError("words are built from Letter values")
    for left, right in zip(letters, letters[1:]):
        if left.algebra == right.algebra:
            raise ValueError("adjacent letters share an algebra; word is not reduced")
    return tuple(letters)


def _phi(algebra, factors):
    """The scalar symbol of a same-algebra product; None when structurally zero."""
    if len(factors) == 1 and factors[0][0] == "a":
        return None
    return PhiSymbol(algebra, factors)


def _exact(coeff):
    """A coefficient from outside: an int as it is, anything else as an exact
    Fraction, which becomes an int again when it is integral."""
    if type(coeff) is int:
        return coeff
    value = Fraction(coeff)
    return value.numerator if value.denominator == 1 else value


def _is_centered(letter):
    return letter.circled or (
        len(letter.factors) == 1 and letter.factors[0][0] == "a"
    )


class Expression:
    """Linear combination of reduced words with phi-symbol coefficients.

    Terms are keyed by (word, sorted phi multiset); coefficients are ints,
    or exact Fractions after a non-integer scalar, and zero coefficients
    are pruned, so equality of expressions is plain dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = _exact(coeff)

    @classmethod
    def from_word(cls, letters, coeff=1, phis=()):
        out = cls()
        out._add(tuple(letters), tuple(phis), _exact(coeff))
        return out

    def _add(self, letters, phis, coeff):
        if not coeff:
            return
        key = (letters, tuple(sorted(phis)))
        total = self.terms.get(key, 0) + coeff
        if total:
            self.terms[key] = total
        else:
            self.terms.pop(key, None)

    def _add_scaled(self, other, extra_phis, scale):
        if extra_phis:
            for (w, phis), coeff in other.terms.items():
                self._add(w, phis + tuple(extra_phis), coeff * scale)
            return
        terms = self.terms
        for key, coeff in other.terms.items():
            total = terms.get(key, 0) + coeff * scale
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return isinstance(other, Expression) and self.terms == other.terms

    def __add__(self, other):
        out = Expression(dict(self.terms))
        out._add_scaled(other, (), 1)
        return out

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Expression({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Expression):
            return multiply(self, other)
        out = Expression()
        out._add_scaled(self, (), _exact(other))
        return out

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "Expression(0)"
        bits = []
        for (w, phis), coeff in self.items():
            bits.append(f"{coeff}*phi{list(phis)}*word{list(w)}")
        return "Expression(" + " + ".join(bits) + ")"


def _concat_into(out, w1, w2, phis, coeff):
    """Add coeff phis w1 w2 to out, rewriting the junction of the two reduced
    words until every term is reduced."""
    if not w1 or not w2 or w1[-1].algebra != w2[0].algebra:
        out._add(w1 + w2, phis, coeff)
        return
    u, v = w1[-1], w2[0]
    head, tail = w1[:-1], w2[1:]
    merged = u.factors + v.factors
    out._add(head + (Letter(u.algebra, merged, True),) + tail, phis, coeff)
    _concat_into(out, head, tail, phis + (PhiSymbol(u.algebra, merged),), coeff)
    pu = _phi(u.algebra, u.factors) if u.circled else None
    pv = _phi(v.algebra, v.factors) if v.circled else None
    if pu is not None:
        out._add(head + (v,) + tail, phis + (pu,), -coeff)
    if pv is not None:
        out._add(head + (u,) + tail, phis + (pv,), -coeff)
    if pu is not None and pv is not None:
        _concat_into(out, head, tail, phis + (pu, pv), -coeff)


def _multiply_into(out, e1, e2, scale):
    """Add scale times the product e1 e2 to out, reducing every junction."""
    for (w1, p1), c1 in e1.terms.items():
        for (w2, p2), c2 in e2.terms.items():
            _concat_into(out, w1, w2, p1 + p2, c1 * c2 * scale)
    return out


def multiply(e1, e2):
    """Product of two expressions, reducing every junction."""
    return _multiply_into(Expression(), e1, e2, 1)


def reduce_product(b, x, a):
    """Full reduced expansion of the three-word product b x a."""
    eb = Expression.from_word(word(*b))
    ex = Expression.from_word(word(*x))
    ea = Expression.from_word(word(*a))
    return multiply(multiply(eb, ex), ea)


def apply_generator(expr):
    """Leibniz sum wrapping each letter; scalars map to zero.

    Wrapping ignores circling: the generator of a centered letter equals
    the generator of the raw product, and the generator of a scalar is 0.
    """
    out = Expression()
    for (w, phis), coeff in expr.terms.items():
        for j, letter in enumerate(w):
            wrapped = Letter(letter.algebra, (("g", letter.factors),), False)
            out._add(w[:j] + (wrapped,) + w[j + 1 :], phis, coeff)
    return out


def circle(expr):
    """Mean-center an expression: drop scalars, center single letters."""
    out = Expression()
    for (w, phis), coeff in expr.terms.items():
        if len(w) == 0:
            continue
        if len(w) == 1 and not _is_centered(w[0]):
            lt = w[0]
            out._add((Letter(lt.algebra, lt.factors, True),), phis, coeff)
            continue
        if len(w) > 1 and not all(_is_centered(lt) for lt in w):
            raise ValueError("cannot center a long word with uncentered letters")
        out._add(w, phis, coeff)
    return out


def _star_primary(p):
    if p[0] == "a":
        return ("a", p[1], not p[2])
    return ("g", tuple(_star_primary(f) for f in reversed(p[1])))


def star(expr):
    """Formal adjoint: reverse each word, star letters, star phi contents."""
    out = Expression()
    for (w, phis), coeff in expr.terms.items():
        rw = tuple(
            Letter(
                lt.algebra,
                tuple(_star_primary(f) for f in reversed(lt.factors)),
                lt.circled,
            )
            for lt in reversed(w)
        )
        rp = tuple(
            PhiSymbol(p.algebra, tuple(_star_primary(f) for f in reversed(p.factors)))
            for p in phis
        )
        out._add(rw, rp, coeff)
    return out


def _leibniz_defect(eb, ev):
    """C(b, v) = D(b v) - b D(v), the failure of the Leibniz rule at b."""
    out = apply_generator(multiply(eb, ev))
    return _multiply_into(out, eb, apply_generator(ev), -1)


def gradient_commutator(b, x, a):
    """b D(x a) - D(b x a) - b D(x) a + D(b x) a for reduced words.

    Expanded as C(b, x) a - C(b, x a) with C the Leibniz defect, which is
    the same sum regrouped by bilinearity of the product."""
    eb = Expression.from_word(word(*b))
    ex = Expression.from_word(word(*x))
    ea = Expression.from_word(word(*a))
    out = multiply(_leibniz_defect(eb, ex), ea)
    out._add_scaled(_leibniz_defect(eb, multiply(ex, ea)), (), -1)
    return out


def _boundary_main_sum(b, x, a):
    """Sum over junction positions of scalar pairs around a centered local term."""
    n, k, m = len(x), len(b), len(a)
    total = Expression()
    for i in range(max(1, n - m + 1), min(n, k) + 1):
        pairs = [(b[k - j], x[j - 1]) for j in range(1, i)]
        pairs += [(x[j - 1], a[n - j]) for j in range(i + 1, n + 1)]
        if any(u.algebra != v.algebra for u, v in pairs):
            continue
        phis = [PhiSymbol(u.algebra, u.factors + v.factors) for u, v in pairs]
        mid_b, mid_x, mid_a = b[k - i], x[i - 1], a[n - i]
        if not mid_b.algebra == mid_x.algebra == mid_a.algebra:
            continue
        middle = circle(gradient_commutator((mid_b,), (mid_x,), (mid_a,)))
        term = multiply(Expression.from_word(b[: k - i]), middle)
        term = multiply(term, Expression.from_word(a[n - i + 1 :]))
        total._add_scaled(term, tuple(phis), 1)
    return total


@dataclass(frozen=True)
class RemainderLedger:
    """Leftover short-word terms, grouped by (length, algebra signature)."""

    groups: dict
    max_word_length: int
    bound: int
    within_bound: bool


@dataclass(frozen=True)
class ExpansionReport:
    b_types: tuple
    x_types: tuple
    a_types: tuple
    lhs_is_zero: bool
    must_vanish: bool
    ledger: RemainderLedger
    residual: Expression
    passed: bool


def verify_boundary_expansion(b_types, x_types, a_types, *, max_x=4, max_side=3):
    """Check the junction expansion of the commutator against its boundary sum.

    Fresh atoms are substituted into the type pattern, the left side is
    expanded symbolically, the boundary main sum is subtracted, and the
    leftover ledger must consist of words no longer than len(b) + len(a);
    patterns with a middle word longer than len(b) + len(a) - 1 must
    cancel to zero outright.
    """
    b_types = tuple(b_types)
    x_types = tuple(x_types)
    a_types = tuple(a_types)
    for seq in (b_types, x_types, a_types):
        if any(left == right for left, right in zip(seq, seq[1:])):
            raise ValueError("type pattern is not reduced")
    if len(x_types) > max_x or max(len(b_types), len(a_types)) > max_side:
        raise ResourceLimitError(
            f"pattern sizes ({len(b_types)}, {len(x_types)}, {len(a_types)}) "
            f"exceed limits ({max_side}, {max_x}, {max_side})"
        )
    work = _pattern_work(len(b_types), len(x_types), len(a_types))
    if work > MAX_LETTER_WORK:
        raise ResourceLimitError(
            f"pattern sizes ({len(b_types)}, {len(x_types)}, {len(a_types)}) take "
            f"{work} units of letter work, above {MAX_LETTER_WORK}"
        )
    b = tuple(atom(t, f"b{i}") for i, t in enumerate(b_types, 1))
    x = tuple(atom(t, f"x{i}") for i, t in enumerate(x_types, 1))
    a = tuple(atom(t, f"a{i}") for i, t in enumerate(a_types, 1))
    ledger_expr = gradient_commutator(b, x, a)
    lhs_zero = ledger_expr.is_zero()
    ledger_expr._add_scaled(_boundary_main_sum(b, x, a), (), -1)

    n, k, m = len(x), len(b), len(a)
    bound = k + m
    groups = {}
    residual = Expression()
    max_len = 0
    for (w, phis), coeff in ledger_expr.terms.items():
        sig = (len(w), tuple(lt.algebra for lt in w))
        groups.setdefault(sig, Expression())._add(w, phis, coeff)
        max_len = max(max_len, len(w))
        if len(w) > bound:
            residual._add(w, phis, coeff)
    must_vanish = n > k + m - 1
    ledger = RemainderLedger(
        groups=groups,
        max_word_length=max_len,
        bound=bound,
        within_bound=residual.is_zero(),
    )
    passed = residual.is_zero() and (lhs_zero or not must_vanish)
    return ExpansionReport(
        b_types=b_types,
        x_types=x_types,
        a_types=a_types,
        lhs_is_zero=lhs_zero,
        must_vanish=must_vanish,
        ledger=ledger,
        residual=residual,
        passed=passed,
    )


def _growth_words(max_length, used, algebras):
    """Reduced label words of length 0..max_length once `used` labels are taken.

    Each letter is a label already used or the next unused one, so a pattern
    of such words is the first-appearance relabeling, and least member, of its
    class.  Words come by length, then lexicographically, with the labels used."""
    level = [((), used)]
    yield from level
    for _ in range(max_length):
        level = [
            (w + (t,), max(n, t + 1))
            for w, n in level
            for t in range(min(n + 1, algebras))
            if not w or t != w[-1]
        ]
        yield from level


def _pattern_work(k, n, m):
    """The cost of one pattern of k, n and m letters in b, x and a, in the
    units of MAX_LETTER_WORK."""
    return (k + 1) * (n + 1) * (m + 1) * (k + n + m)


def expansion_sweep(*, max_x=4, max_side=3, algebras=3):
    """Verify every type pattern up to the size limits, one per relabeling class.

    More than MAX_SWEEP_PATTERNS patterns, or more than MAX_LETTER_WORK
    summed over them, is a ResourceLimitError, raised while the patterns are
    listed and so before any is verified."""
    if min(max_x, max_side) < 0:
        raise ValueError("max_x and max_side must be >= 0")
    if algebras < 1:
        raise ValueError("algebras must be >= 1")
    patterns, work = [], 0
    for bt, used_b in _growth_words(max_side, 0, algebras):
        for xt, used_x in _growth_words(max_x, used_b, algebras):
            for at, _ in _growth_words(max_side, used_x, algebras):
                patterns.append((bt, xt, at))
                work += _pattern_work(len(bt), len(xt), len(at))
                if len(patterns) > MAX_SWEEP_PATTERNS or work > MAX_LETTER_WORK:
                    raise ResourceLimitError(
                        f"a sweep of ({max_x}, {max_side}, {algebras}) takes more than "
                        + (f"{MAX_LETTER_WORK} units of letter work" if work > MAX_LETTER_WORK
                           else f"{MAX_SWEEP_PATTERNS} patterns")
                    )
    return [
        verify_boundary_expansion(bt, xt, at, max_x=max_x, max_side=max_side)
        for bt, xt, at in patterns
    ]


def hs_propagation_bound(per_algebra, scalar_bound, a_bound, b_bound, m, k, ledger_hs):
    """Numeric propagation bound from per-algebra values and word-norm bounds.

    Computes 2*ledger_hs + 2*(k+m-1)^2 * scalar_bound^(m+k) * a_bound^(2m)
    * b_bound^(2k) * max(per_algebra values); monotone in every argument.
    """
    values = list(per_algebra.values()) if hasattr(per_algebra, "values") else list(per_algebra)
    if any(v < 0 for v in values):
        raise ValueError("per-algebra values must be nonnegative")
    for name, v in (
        ("scalar_bound", scalar_bound),
        ("a_bound", a_bound),
        ("b_bound", b_bound),
        ("ledger_hs", ledger_hs),
    ):
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")
    if m < 0 or k < 0:
        raise ValueError("word lengths must be nonnegative")
    peak = max(values, default=0.0)
    weight = (
        2
        * (k + m - 1) ** 2
        * scalar_bound ** (m + k)
        * a_bound ** (2 * m)
        * b_bound ** (2 * k)
    )
    return 2 * ledger_hs + weight * peak
