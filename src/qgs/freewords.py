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

The rewriting runs on ids: each public call interns every Letter and
PhiSymbol it meets as a small int in one _Table, dropped on return, so a
word is a tuple of ids and a term is keyed by (word, sorted phi ids).
Expressions are encoded on the way in and decoded on the way out.  A
verification runs on one table: the commutator, its boundary main sum and
the ledger share its ids, and only the report is decoded.  expansion_sweep
shares one table across its patterns, which keeps the Leibniz defect
C(b, x) of the current b and x.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import ResourceLimitError

# expansion_sweep's ceilings (2-vCPU x86_64, in process): (6, 3, 3), 15,331
# patterns, takes 0.85-1.25 s, (4, 3, 4) 0.7-1.1 s and (354, 0, 2) 1.6-1.9 s.
# A pattern of k, n and m letters in b, x and a costs 0.07-0.13 us per unit of
# _pattern_work(k, n, m) = (k+1)(n+1)(m+1)(k+n+m) over those sweeps, about
# 0.1 us for an x of 256 letters or a b, x and a of 30 each, and 0.34 us for a
# b and an a of 30 around an empty x.  MAX_LETTER_WORK holds for a sweep and a
# single pattern.
MAX_SWEEP_PATTERNS = 20_000
MAX_LETTER_WORK = 15 * 10**6


class Letter(namedtuple("Letter", "algebra factors circled")):
    __slots__ = ()


class PhiSymbol(namedtuple("PhiSymbol", "algebra factors")):
    __slots__ = ()


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


def _exact(coeff):
    """A coefficient from outside: an int as it is, anything else as an exact
    Fraction, which becomes an int again when it is integral."""
    if type(coeff) is int:
        return coeff
    value = Fraction(coeff)
    return value.numerator if value.denominator == 1 else value


def _is_centered(letter):
    return letter.circled or (len(letter.factors) == 1 and letter.factors[0][0] == "a")


def _add(terms, key, coeff):
    """Add coeff to the term at key, dropping the term when the sum is zero."""
    total = terms.get(key, 0) + coeff
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


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
        _add(out.terms, (tuple(letters), tuple(sorted(phis))), _exact(coeff))
        return out

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return isinstance(other, Expression) and self.terms == other.terms

    def __add__(self, other):
        out = Expression(self.terms)
        for key, coeff in other.terms.items():
            _add(out.terms, key, coeff)
        return out

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, Expression):
            return multiply(self, other)
        out, scale = Expression(), _exact(other)
        for key, coeff in self.terms.items():
            _add(out.terms, key, coeff * scale)
        return out

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "Expression(0)"
        bits = []
        for (w, phis), coeff in self.items():
            bits.append(f"{coeff}*phi{list(phis)}*word{list(w)}")
        return "Expression(" + " + ".join(bits) + ")"


class _Table:
    """One call's interned letters and phi symbols, each id's algebra and the
    phi id of a circled letter, memos of the junction fusion and the
    generator wrap, and the id word of each (name, types) of atoms; defect is
    the current ((b, x), C(b, x)), b and x as ids."""

    __slots__ = ("ids", "values", "algebra", "phi", "merges", "wraps", "atoms", "defect")

    def __init__(self):
        self.ids, self.values, self.algebra, self.phi = {}, [], [], []
        self.merges, self.wraps, self.atoms, self.defect = {}, {}, {}, None

    def intern(self, value):
        u = self.ids.get(value)
        if u is None:
            circled = isinstance(value, Letter) and value.circled
            phi = self.symbol(value.algebra, value.factors) if circled else None
            u = self.ids[value] = len(self.values)
            self.values.append(value)
            self.algebra.append(value.algebra)
            self.phi.append(phi)
        return u

    def symbol(self, algebra, factors):
        """The id of phi of a same-algebra product; None when structurally zero."""
        if len(factors) == 1 and factors[0][0] == "a":
            return None
        return self.intern(PhiSymbol(algebra, factors))

    def word(self, letters):
        return tuple(map(self.intern, letters))

    def merge(self, u, v):
        """The ids of the circled letter fusing u v and of its phi."""
        if (u, v) not in self.merges:
            alg, merged = self.algebra[u], self.values[u].factors + self.values[v].factors
            self.merges[u, v] = (self.intern(Letter(alg, merged, True)), self.symbol(alg, merged))
        return self.merges[u, v]

    def wrap(self, u):
        """The id of u wrapped by the generator, which ignores circling."""
        if u not in self.wraps:
            lt = Letter(self.algebra[u], (("g", self.values[u].factors),), False)
            self.wraps[u] = self.intern(lt)
        return self.wraps[u]

    def encode(self, expr):
        terms = {}
        for (w, phis), coeff in expr.terms.items():
            _add(terms, (self.word(w), tuple(sorted(self.word(phis)))), coeff)
        return terms

    def decode(self, terms):
        get, out = self.values.__getitem__, Expression()
        out.terms = {(tuple(map(get, w)), tuple(sorted(map(get, phis)))): coeff
                     for (w, phis), coeff in terms.items()}
        return out


def _on_ids(engine, *exprs):
    """engine run on the expressions, encoded in a fresh table, and decoded."""
    t = _Table()
    return t.decode(engine(t, {}, *map(t.encode, exprs)))


def _concat_into(t, out, w1, w2, phis, coeff):
    """Add coeff phis w1 w2 to out, rewriting the junction of the two reduced
    words until every term is reduced."""
    if not w1 or not w2 or t.algebra[w1[-1]] != t.algebra[w2[0]]:
        _add(out, (w1 + w2, phis), coeff)
        return
    u, v = w1[-1], w2[0]
    head, tail = w1[:-1], w2[1:]
    fused, phi = t.merge(u, v)
    _add(out, (head + (fused,) + tail, phis), coeff)
    _concat_into(t, out, head, tail, tuple(sorted(phis + (phi,))), coeff)
    pu, pv = t.phi[u], t.phi[v]
    if pu is not None:
        _add(out, (head + (v,) + tail, tuple(sorted(phis + (pu,)))), -coeff)
    if pv is not None:
        _add(out, (head + (u,) + tail, tuple(sorted(phis + (pv,)))), -coeff)
    if pu is not None and pv is not None:
        _concat_into(t, out, head, tail, tuple(sorted(phis + (pu, pv))), -coeff)


def _multiply_into(t, out, e1, e2, scale=1):
    """Add scale times the product e1 e2 to out, reducing every junction."""
    for (w1, p1), c1 in e1.items():
        for (w2, p2), c2 in e2.items():
            phis = tuple(sorted(p1 + p2)) if p1 and p2 else p1 or p2
            _concat_into(t, out, w1, w2, phis, c1 * c2 * scale)
    return out


def multiply(e1, e2):
    """Product of two expressions, reducing every junction."""
    return _on_ids(_multiply_into, e1, e2)


def reduce_product(b, x, a):
    """Full reduced expansion of the three-word product b x a."""
    eb, ex, ea = (Expression.from_word(word(*w)) for w in (b, x, a))
    return multiply(multiply(eb, ex), ea)


def _generator_into(t, out, expr, scale=1):
    """Add scale times the Leibniz sum wrapping each letter; scalars map to zero."""
    for (w, phis), coeff in expr.items():
        coeff *= scale
        letters = list(w)
        for j, u in enumerate(w):
            letters[j] = t.wrap(u)
            _add(out, (tuple(letters), phis), coeff)
            letters[j] = u
    return out


def apply_generator(expr):
    """Leibniz sum wrapping each letter; scalars map to zero.

    Wrapping ignores circling: the generator of a centered letter equals
    the generator of the raw product, and the generator of a scalar is 0.
    """
    return _on_ids(_generator_into, expr)


def _circle_into(t, out, expr):
    for (w, phis), coeff in expr.items():
        if len(w) == 1 and not _is_centered(t.values[w[0]]):
            w = (t.intern(t.values[w[0]]._replace(circled=True)),)
        elif len(w) > 1 and not all(_is_centered(t.values[u]) for u in w):
            raise ValueError("cannot center a long word with uncentered letters")
        if w:
            _add(out, (w, phis), coeff)
    return out


def circle(expr):
    """Mean-center an expression: drop scalars, center single letters."""
    return _on_ids(_circle_into, expr)


def _star_primary(p):
    if p[0] == "a":
        return ("a", p[1], not p[2])
    return ("g", tuple(_star_primary(f) for f in reversed(p[1])))


def _star_into(t, out, expr):
    def starred(u):
        lt = t.values[u]
        return t.intern(lt._replace(factors=tuple(map(_star_primary, reversed(lt.factors)))))

    for (w, phis), coeff in expr.items():
        _add(out, (tuple(map(starred, reversed(w))), tuple(sorted(map(starred, phis)))), coeff)
    return out


def star(expr):
    """Formal adjoint: reverse each word, star letters, star phi contents."""
    return _on_ids(_star_into, expr)


def _defect_into(t, out, eb, ev, scale=1):
    """Add scale times C(b, v) = D(b v) - b D(v), the failure of the Leibniz
    rule at b."""
    _generator_into(t, out, _multiply_into(t, {}, eb, ev), scale)
    return _multiply_into(t, out, eb, _generator_into(t, {}, ev), -scale)


def _commutator_into(t, out, eb, ex, ea, cbx):
    """Add C(b, x) a - C(b, x a) to out, given cbx = C(b, x)."""
    _multiply_into(t, out, cbx, ea)
    return _defect_into(t, out, eb, _multiply_into(t, {}, ex, ea), -1)


def gradient_commutator(b, x, a):
    """b D(x a) - D(b x a) - b D(x) a + D(b x) a for reduced words.

    Expanded as C(b, x) a - C(b, x a) with C the Leibniz defect, which is
    the same sum regrouped by bilinearity of the product."""
    t = _Table()
    eb, ex, ea = ({(t.word(word(*w)), ()): 1} for w in (b, x, a))
    return t.decode(_commutator_into(t, {}, eb, ex, ea, _defect_into(t, {}, eb, ex)))


def _boundary_main_sum(t, b, x, a):
    """Sum over junction positions of scalar pairs around a centered local
    term, for words of ids in t."""
    n, k, m = len(x), len(b), len(a)
    alg, total = t.algebra, {}
    for i in range(max(1, n - m + 1), min(n, k) + 1):
        mid = (b[k - i], x[i - 1], a[n - i])
        if not alg[mid[0]] == alg[mid[1]] == alg[mid[2]]:
            continue
        pairs = [(b[k - j], x[j - 1]) for j in range(1, i)]
        pairs += [(x[j - 1], a[n - j]) for j in range(i + 1, n + 1)]
        if any(alg[u] != alg[v] for u, v in pairs):
            continue
        phis = tuple(t.merge(u, v)[1] for u, v in pairs)
        eu, ev, ew = ({((u,), ()): 1} for u in mid)
        middle = _commutator_into(t, {}, eu, ev, ew, _defect_into(t, {}, eu, ev))
        term = _multiply_into(t, {}, {(b[: k - i], ()): 1}, _circle_into(t, {}, middle))
        term = _multiply_into(t, {}, term, {(a[n - i + 1 :], ()): 1})
        for (w, p), coeff in term.items():
            _add(total, (w, tuple(sorted(p + phis))), coeff)
    return total


class RemainderLedger(namedtuple("RemainderLedger", "groups max_word_length bound within_bound")):
    """Leftover short-word terms, grouped by (length, algebra signature)."""

    __slots__ = ()


class ExpansionReport(namedtuple("ExpansionReport", "b_types x_types a_types lhs_is_zero "
                                 "must_vanish ledger residual passed")):
    __slots__ = ()


def _atoms(t, name, types):
    """The id word of fresh atoms name1, name2, ... of the given algebra types,
    interned once per table."""
    ids = t.atoms.get((name, types))
    if ids is None:
        ids = tuple(t.intern(atom(alg, f"{name}{i}")) for i, alg in enumerate(types, 1))
        t.atoms[name, types] = ids
    return ids


def verify_boundary_expansion(b_types, x_types, a_types, *, max_x=4, max_side=3):
    """Check the junction expansion of the commutator against its boundary sum.

    Fresh atoms are substituted into the type pattern, the left side is
    expanded symbolically, the boundary main sum is subtracted, and the
    leftover ledger must consist of words no longer than len(b) + len(a);
    patterns with a middle word longer than len(b) + len(a) - 1 must
    cancel to zero outright.
    """
    if min(max_x, max_side) < 0:
        raise ValueError("max_x and max_side must be >= 0")
    b_types, x_types, a_types = tuple(b_types), tuple(x_types), tuple(a_types)
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
    return _verify(_Table(), b_types, x_types, a_types)


def _verify(t, b_types, x_types, a_types):
    b, x, a = _atoms(t, "b", b_types), _atoms(t, "x", x_types), _atoms(t, "a", a_types)
    eb, ex = {(b, ()): 1}, {(x, ()): 1}
    if t.defect is None or t.defect[0] != (b, x):
        t.defect = ((b, x), _defect_into(t, {}, eb, ex))
    ledger_terms = _commutator_into(t, {}, eb, ex, {(a, ()): 1}, t.defect[1])
    lhs_zero = not ledger_terms
    for term, coeff in _boundary_main_sum(t, b, x, a).items():
        _add(ledger_terms, term, -coeff)

    n, k, m = len(x), len(b), len(a)
    bound = k + m
    groups, residual = {}, {}
    for (w, phis), coeff in ledger_terms.items():
        groups.setdefault((len(w), tuple(t.algebra[u] for u in w)), {})[w, phis] = coeff
        if len(w) > bound:
            residual[w, phis] = coeff
    must_vanish = n > k + m - 1
    ledger = RemainderLedger(
        groups={sig: t.decode(group) for sig, group in groups.items()},
        max_word_length=max((sig[0] for sig in groups), default=0),
        bound=bound,
        within_bound=not residual,
    )
    passed = not residual and (lhs_zero or not must_vanish)
    return ExpansionReport(b_types, x_types, a_types, lhs_zero, must_vanish, ledger,
                           t.decode(residual), passed)


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
        if not level:  # over one algebra no reduced word is longer than 1
            return
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
    t = _Table()
    return [_verify(t, *pattern) for pattern in patterns]


def hs_propagation_bound(per_algebra, scalar_bound, a_bound, b_bound, m, k, ledger_hs):
    """Numeric propagation bound from per-algebra values and word-norm bounds.

    Computes 2*ledger_hs + 2*(k+m-1)^2 * scalar_bound^(m+k) * a_bound^(2m)
    * b_bound^(2k) * max(per_algebra values); monotone in every argument.
    """
    values = list(per_algebra.values()) if hasattr(per_algebra, "values") else list(per_algebra)
    if any(not v >= 0 for v in values):
        raise ValueError("per-algebra values must be nonnegative")
    for name, v in (
        ("scalar_bound", scalar_bound),
        ("a_bound", a_bound),
        ("b_bound", b_bound),
        ("ledger_hs", ledger_hs),
    ):
        if not v >= 0:
            raise ValueError(f"{name} must be nonnegative")
    if not (m >= 0 and k >= 0):
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
