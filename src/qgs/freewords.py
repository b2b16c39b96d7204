"""Formal calculus of reduced words over a free product of state-equipped algebras.

Words are tuples of letters; a letter carries an algebra label, a flat
tuple of primitive factors, and a circled flag meaning the letter has
been mean-centered.  Primitive factors are tagged tuples: ("a", name,
starred) for an atom, ("g", factors) for a letter wrapped by the formal
generator.  Atoms are assumed mean-zero, so the scalar symbol phi of a
single atom is structurally zero; every other phi is an opaque symbol
and expressions are polynomials in these symbols with int coefficients.
The junction rewrite for same-algebra neighbours u, v with contents C, D is

    u v = (CD) circled + phi(CD) 1 - [u circled] phi(C) v
          - [v circled] phi(D) u - [both circled] phi(C) phi(D) 1

which keeps every letter of a normal form mean-zero or a bare generator
wrap, and makes normal forms unique regardless of rewrite order.

The rewriting runs on ids: each public call interns every Letter and
PhiSymbol it meets as a small int in one _Table, dropped on return, so a
word is a tuple of ids and a term is keyed by (word, sorted phi ids).
Terms are decoded to an Expression on the way out only: a report's ledger
and residual.

Every product is computed on its junction core.  Let depth(u, v) = L be
the longest run of i with alg(u[-1-i]) = alg(v[i]), and u = U u', v = v' V
with u' and v' of L letters.  Then u v = U (u' v') V and E(u, v) =
U E(u', v') V by plain concatenation, where E(u, v) = D(uv) - D(u) v -
u D(v) is the product defect of the generator D (E = 0 at L = 0).  Proof:
each term of u' v' starts in alg(u'[0]) != alg(U[-1]) and ends in
alg(v'[-1]) != alg(V[0]), and a full collapse leaves U V, reduced as the
run stops at L; D(U w V) = D(U) w V + U D(w) V + U w D(V), and D(u) v and
u D(v) split alike, so all but U E(u', v') V cancels.  The cores are
memoised on the call's table.  A verification runs on one table: the
commutator E(b, x) a - E(b, x a), its boundary main sum and the ledger
share its ids, and only the report is decoded.  expansion_sweep shares one
table across its patterns, keeping E(b, x) of the current b and x and x a.
"""

from collections import namedtuple

from .errors import ResourceLimitError

# expansion_sweep's ceilings (2-vCPU x86_64, in process): (6, 3, 3), 15,331
# patterns, takes 0.11-0.22 s, (4, 3, 4) 0.14-0.31 s and (354, 0, 2) under
# 0.01 s, as _pattern_work(k, n, m) = (k+1)(n+1)(m+1)(k+n+m), for k, n and m
# letters in b, x and a, over-counts the patterns _verify decides by locality.
# A pattern whose letters all meet costs 0.1-0.33 us a unit: 1.4-2.3 s for a b,
# x and a of 46 each, 3.9-4.8 s for a b and an a of 194 around an empty x.
# MAX_LETTER_WORK holds for a sweep and a single pattern.
MAX_SWEEP_PATTERNS = 20_000
MAX_LETTER_WORK = 15 * 10**6


class Letter(namedtuple("Letter", "algebra factors circled")):
    __slots__ = ()


class PhiSymbol(namedtuple("PhiSymbol", "algebra factors")):
    __slots__ = ()


def atom(algebra, name, star=False):
    """A single mean-zero letter of the given algebra."""
    return Letter(algebra, (("a", str(name), bool(star)),), False)


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
    """Linear combination of reduced words with phi-symbol coefficients: the
    ledger groups and residual of a report.

    Terms are keyed by (word, sorted phi multiset) with nonzero int
    coefficients, as _add leaves them, so equality of expressions is plain
    dict equality.  The terms dict is stored as given.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return isinstance(other, Expression) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Expression(0)"
        bits = []
        for (w, phis), coeff in self.items():
            bits.append(f"{coeff}*phi{list(phis)}*word{list(w)}")
        return "Expression(" + " + ".join(bits) + ")"


class _Table:
    """One call's interned letters and phi symbols, each id's algebra and the
    phi id of a circled letter, memos of the junction fusion, the generator
    wrap, the cores, each x a and the id word of each (name, types) of atoms;
    defect is the current ((b, x), E(b, x)), b and x as ids."""

    __slots__ = ("ids", "values", "algebra", "phi", "merges", "wraps", "cores", "defects",
                 "products", "atoms", "defect")

    def __init__(self):
        self.ids, self.values, self.algebra, self.phi = {}, [], [], []
        self.merges, self.wraps, self.atoms, self.defect, self.products = {}, {}, {}, None, {}
        self.cores, self.defects = {((), ()): {((), ()): 1}}, {}  # u v = U V at depth 0

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

    def decode(self, terms):
        get = self.values.__getitem__
        return Expression({(tuple(map(get, w)), tuple(sorted(map(get, phis)))): coeff
                           for (w, phis), coeff in terms.items()})


def _depth(left, right):
    """How many letters meet at a junction, given the algebras of the left
    word backwards and of the right word: the run of i with left[i] ==
    right[i]."""
    depth = 0
    for u, v in zip(left, right):
        if u != v:
            break
        depth += 1
    return depth


def _core(t, u, v):
    """u v for a junction core (u and v meet letter by letter), memoised on
    t.  With u = h x and v = y k, x y leaves h (xy) k, -phi(x) h y k and
    -phi(y) h x k for a circled x or y, and the core of h and k times
    phi(xy) - [both circled] phi(x) phi(y)."""
    terms = t.cores.get((u, v))
    if terms is None:
        head, tail, x, y = u[:-1], v[1:], u[-1], v[0]
        (fused, phi), px, py = t.merge(x, y), t.phi[x], t.phi[y]
        terms = t.cores[u, v] = {(head + (fused,) + tail, ()): 1}
        for z, p in ((y, px), (x, py)):
            if p is not None:
                _add(terms, (head + (z,) + tail, (p,)), -1)
        for (w, p), c in _core(t, head, tail).items():
            _add(terms, (w, tuple(sorted(p + (phi,)))), c)
            if px is not None and py is not None:
                _add(terms, (w, tuple(sorted(p + (px, py)))), -c)
    return terms


def _defect_core(t, u, v):
    """E(u, v) for a junction core, memoised on t.  With u = h x and v = y k,
    it leaves h (g(xy) - g(x) y - x g(y)) k - (phi(g(x) y) + phi(x g(y))) h k,
    g the generator wrap, and E(h, k) times the scalar of x y: D(uv) - D(u) v
    - u D(v) through one junction, where the terms with phi(x) or phi(y)
    alone cancel.  Unrolled, as E(h, k) has quadratically many terms."""
    terms = t.defects.get((u, v))
    if terms is None:
        terms, scalars, n = t.defects.setdefault((u, v), {}), {(): 1}, len(u)
        for level in range(n):
            head, tail, x, y = u[: n - 1 - level], v[level + 1 :], u[-1 - level], v[level]
            (fused, phi), px, py = t.merge(x, y), t.phi[x], t.phi[y]
            (left, phi_left), (right, phi_right) = t.merge(t.wrap(x), y), t.merge(x, t.wrap(y))
            inner = _core(t, head, tail).items()
            for s, c in scalars.items():
                for letter, sign in ((t.wrap(fused), 1), (left, -1), (right, -1)):
                    _add(terms, (head + (letter,) + tail, s), sign * c)
                for (w, p), d in inner:
                    for extra in (phi_left, phi_right):
                        _add(terms, (w, tuple(sorted(s + p + (extra,)))), -c * d)
            scalars, above = {}, scalars
            for s, c in above.items():
                _add(scalars, tuple(sorted(s + (phi,))), c)
                if px is not None and py is not None:
                    _add(scalars, tuple(sorted(s + (px, py))), -c)
    return terms


def _product_into(t, out, e1, e2, scale=1, core=_core):
    """Add scale times the product e1 e2 to out, or, with core=_defect_core,
    the product defect E(e1, e2): each pair of words on its junction core."""
    alg = t.algebra
    for (w1, p1), c1 in e1.items():
        for (w2, p2), c2 in e2.items():
            phis = tuple(sorted(p1 + p2)) if p1 and p2 else p1 or p2
            depth, top = 0, min(len(w1), len(w2))
            while depth < top and alg[w1[-1 - depth]] == alg[w2[depth]]:
                depth += 1
            cut, coeff = len(w1) - depth, c1 * c2 * scale
            head, tail = w1[:cut], w2[depth:]
            for (w, p), c in core(t, w1[cut:], w2[:depth]).items():
                _add(out, (head + w + tail, tuple(sorted(phis + p)) if phis and p else phis or p),
                     coeff * c)
    return out


def _circle_into(t, out, expr):
    """Add expr mean-centered to out: scalars dropped, single letters centered.
    A long word with an uncentered letter is refused.  The verifier never
    passes one: the three letters of a boundary term's middle share one
    algebra, so its words have at most one letter."""
    for (w, phis), coeff in expr.items():
        if len(w) == 1 and not _is_centered(t.values[w[0]]):
            w = (t.intern(t.values[w[0]]._replace(circled=True)),)
        elif len(w) > 1 and not all(_is_centered(t.values[u]) for u in w):
            raise ValueError("cannot center a long word with uncentered letters")
        if w:
            _add(out, (w, phis), coeff)
    return out


def _commutator_into(t, out, eb, ea, ebx, exa):
    """Add E(b, x) a - E(b, x a) to out, given ebx = E(b, x) and exa = x a:
    the commutator b D(x a) - D(b x a) - b D(x) a + D(b x) a.  Proof: the
    Leibniz defect C(u, v) = D(uv) - u D(v) is E(u, v) + D(u) v, and the
    product is associative, so the four terms, C(b, x) a - C(b, x a), are
    E(b, x) a + (D(b) x) a - E(b, x a) - D(b) (x a)."""
    _product_into(t, out, ebx, ea)
    return _product_into(t, out, eb, exa, -1, _defect_core)


def _boundary_main_sum(t, b, x, a):
    """Sum over junction positions of scalar pairs around a centered local
    term, for words of ids in t.  Position i needs the last i letters of b to
    meet the first i of x, and the last n - i + 1 of x the first of a, so it
    runs over n + 1 - depth(x, a) <= i <= depth(b, x)."""
    n, k, alg = len(x), len(b), t.algebra.__getitem__
    total, low = {}, n + 1 - _depth(map(alg, reversed(x)), map(alg, a))
    for i in range(max(1, low), _depth(map(alg, reversed(b)), map(alg, x)) + 1):
        pairs = [(b[k - j], x[j - 1]) for j in range(1, i)]
        pairs += [(x[j - 1], a[n - j]) for j in range(i + 1, n + 1)]
        phis = tuple(t.merge(u, v)[1] for u, v in pairs)
        eu, ev, ew = ({((u,), ()): 1} for u in (b[k - i], x[i - 1], a[n - i]))
        ebx = _product_into(t, {}, eu, ev, core=_defect_core)
        middle = _commutator_into(t, {}, eu, ew, ebx, _product_into(t, {}, ev, ew))
        term = _product_into(t, {}, {(b[: k - i], ()): 1}, _circle_into(t, {}, middle))
        term = _product_into(t, {}, term, {(a[n - i + 1 :], ()): 1})
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
    """The report of one pattern on t.  Locality: where depth(b, x) +
    depth(x, a) < n = len(x), read from the types (an atom's algebra is its
    type), the left side is 0 and the boundary sum empty.  Proof: x = x' y x''
    with y nonempty, x' the first depth(b, x) letters and x'' the last
    depth(x, a); each term of x a and of E(b, x) keeps y, so E(b, x) a and
    E(b, x a) are both B E(b', x') y (x'' a') A, and the boundary sum needs
    i <= depth(b, x) and n - i + 1 <= depth(x, a)."""
    n, k, m = len(x_types), len(b_types), len(a_types)
    ledger_terms, lhs_zero = {}, True
    if _depth(reversed(b_types), x_types) + _depth(reversed(x_types), a_types) >= n:
        b, x, a = _atoms(t, "b", b_types), _atoms(t, "x", x_types), _atoms(t, "a", a_types)
        eb, ea = {(b, ()): 1}, {(a, ()): 1}
        if t.defect is None or t.defect[0] != (b, x):
            t.defect = ((b, x), _product_into(t, {}, eb, {(x, ()): 1}, core=_defect_core))
        xa = t.products.get((x, a))
        if xa is None:
            xa = t.products[x, a] = _product_into(t, {}, {(x, ()): 1}, ea)
        ledger_terms = _commutator_into(t, {}, eb, ea, t.defect[1], xa)
        lhs_zero = not ledger_terms
        for term, coeff in _boundary_main_sum(t, b, x, a).items():
            _add(ledger_terms, term, -coeff)

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
