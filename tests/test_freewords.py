"""Formal reduced-word calculus: rewriting, generator rule, boundary expansion.

The oracle here is a brute-force expander that applies the junction
rewrite u v = (uv) circled + phi(uv) 1 - [u circled] phi(u) v
- [v circled] phi(v) u - [both] phi(u) phi(v) 1 at a RANDOMLY chosen
junction each step and canonicalizes at the end.  Agreement with the
library product over many random orders checks both the expansion and
its order-independence.  The commutator b D(xa) - D(bxa) - b D(x) a
+ D(bx) a, built term by term from the public product and generator, is
the oracle for its regrouping as two product defects.  The package
computes every product on its junction core; tests/oracles.py keeps the
full junction rewrite and the C-based verifier, and the reports of both
routes must be equal, sweep by sweep and on drawn patterns.  The product,
generator, centering and commutator tested here are the package's kernels
(_product_into, _core, _defect_core, _circle_into), each run on one fresh
table by the wrappers in tests/oracles.py.
"""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (add, apply_generator, circle, expression, gradient_commutator, multiply,
                     sub, word)
from qgs.errors import ResourceLimitError
from qgs import freewords
from qgs.freewords import (
    MAX_LETTER_WORK,
    MAX_SWEEP_PATTERNS,
    Expression,
    Letter,
    PhiSymbol,
    _boundary_main_sum,
    _growth_words,
    _pattern_work,
    atom,
    expansion_sweep,
    verify_boundary_expansion,
)


def leibniz_defect(eb, ev):
    """C(b, v) = D(b v) - b D(v) on the reference route."""
    return oracles._on_ids(oracles._defect_into, eb, ev)


def reduce_product(b, x, a):
    """Full reduced expansion of the three-word product b x a."""
    eb, ex, ea = (expression(word(*w)) for w in (b, x, a))
    return multiply(multiply(eb, ex), ea)


def brute_phi(algebra, factors):
    if len(factors) == 1 and factors[0][0] == "a":
        return None
    return PhiSymbol(algebra, factors)


def brute_product(letters, rng):
    """Expand a raw letter sequence, resolving junctions in random order."""
    pending = [(Fraction(1), (), tuple(letters))]
    done = {}
    while pending:
        coeff, phis, w = pending.pop()
        junctions = [
            i for i in range(len(w) - 1) if w[i].algebra == w[i + 1].algebra
        ]
        if not junctions:
            key = (w, tuple(sorted(phis)))
            total = done.get(key, Fraction(0)) + coeff
            if total:
                done[key] = total
            else:
                done.pop(key, None)
            continue
        i = rng.choice(junctions)
        u, v = w[i], w[i + 1]
        merged = u.factors + v.factors
        fused = Letter(u.algebra, merged, True)
        pending.append((coeff, phis, w[:i] + (fused,) + w[i + 2 :]))
        pending.append(
            (coeff, phis + (PhiSymbol(u.algebra, merged),), w[:i] + w[i + 2 :])
        )
        pu = brute_phi(u.algebra, u.factors) if u.circled else None
        pv = brute_phi(v.algebra, v.factors) if v.circled else None
        if u.circled and pu is not None:
            pending.append((-coeff, phis + (pu,), w[:i] + (v,) + w[i + 2 :]))
        if v.circled and pv is not None:
            pending.append((-coeff, phis + (pv,), w[:i] + (u,) + w[i + 2 :]))
        if u.circled and v.circled and pu is not None and pv is not None:
            pending.append((-coeff, phis + (pu, pv), w[:i] + w[i + 2 :]))
    return done


def test_word_validation():
    x = atom(0, "x")
    y = atom(0, "y")
    with pytest.raises(ValueError):
        word(x, y)
    assert word(x, atom(1, "z"), y) == (x, atom(1, "z"), y)


def test_reduce_product_identity_sides():
    x = (atom(0, "x1"), atom(1, "x2"))
    out = reduce_product((), x, ())
    assert out == expression(x)


def test_reduce_product_distinct_algebras():
    b = (atom(0, "b"),)
    x = (atom(1, "x"),)
    a = (atom(2, "a"),)
    out = reduce_product(b, x, a)
    assert out == expression(b + x + a)


def test_reduce_product_matches_brute_single_algebra():
    b = (atom(0, "b"),)
    x = (atom(0, "x"),)
    a = (atom(0, "a"),)
    out = reduce_product(b, x, a)
    for seed in range(20):
        rng = random.Random(seed)
        assert out.terms == brute_product(b + x + a, rng)


def test_confluence_random_patterns():
    rng = random.Random(2024)
    for trial in range(60):
        lengths = [rng.randint(0, 2), rng.randint(1, 3), rng.randint(0, 2)]
        if sum(lengths) > 6 or sum(lengths) == 0:
            continue
        words = []
        count = itertools.count()
        for ln in lengths:
            letters = []
            prev = None
            for _ in range(ln):
                alg = rng.choice([g for g in range(3) if g != prev])
                letters.append(atom(alg, f"s{next(count)}"))
                prev = alg
            words.append(tuple(letters))
        b, x, a = words
        out = reduce_product(b, x, a)
        for seed in (1, 2, 3):
            assert out.terms == brute_product(b + x + a, random.Random(seed))


def test_both_circled_junctions_associate():
    # a same-algebra product is a circled merged letter plus its phi, so
    # joining two of them rewrites a junction of two circled letters with
    # nonzero phis; normal forms must not depend on the bracketing
    a1, a2, a3, a4 = (expression((atom(0, f"a{i}"),)) for i in range(1, 5))
    left, right = multiply(a1, a2), multiply(a3, a4)
    out = multiply(left, right)
    assert out == multiply(multiply(left, a3), a4)
    letters = tuple(atom(0, f"a{i}") for i in range(1, 5))
    assert out.terms == brute_product(letters, random.Random(5))
    # a different-algebra product between them: its phi term joins them again
    b1, b2 = (expression((atom(1, f"b{i}"),)) for i in (1, 2))
    middle = multiply(b1, b2)
    assert multiply(multiply(left, middle), right) == multiply(left, multiply(middle, right))


def test_apply_generator_single_letter():
    x = atom(0, "x")
    out = apply_generator(expression((x,)))
    (key,) = out.terms
    w, phis = key
    assert phis == ()
    assert len(w) == 1
    assert w[0].factors == (("g", x.factors),)


def test_apply_generator_leibniz():
    x1 = atom(0, "x1")
    x2 = atom(1, "x2")
    out = apply_generator(expression((x1, x2)))
    assert len(out.terms) == 2
    for (w, _), coeff in out.terms.items():
        assert coeff == 1
        assert len(w) == 2
        assert sum(1 for lt in w if lt.factors[0][0] == "g") == 1


def test_apply_generator_kills_scalars():
    one = expression((), coeff=3)
    assert apply_generator(one).is_zero()


def test_apply_generator_ignores_circling():
    fused = Letter(0, atom(0, "u").factors + atom(0, "v").factors, True)
    bare = Letter(0, fused.factors, False)
    lhs = apply_generator(expression((fused,)))
    rhs = apply_generator(expression((bare,)))
    assert lhs == rhs


def test_circle_drops_scalars_and_centers():
    scalar = expression((), coeff=5)
    assert circle(scalar).is_zero()
    x = atom(0, "x")
    keep = expression((x,))
    assert circle(keep) == keep
    gen = apply_generator(keep)
    centered = circle(gen)
    (key,) = centered.terms
    assert key[0][0].circled


def test_gradient_commutator_distinct_algebras():
    out = gradient_commutator(
        (atom(0, "b"),), (atom(1, "x"),), (atom(2, "a"),)
    )
    assert out.is_zero()


def test_gradient_commutator_empty_middle():
    out = gradient_commutator((atom(0, "b"),), (), (atom(1, "a"),))
    assert out.is_zero()


def test_gradient_commutator_vanishes_for_long_words():
    # one extra middle letter past the k + m - 1 threshold forces zero
    b = (atom(0, "b"),)
    x = (atom(0, "x1"), atom(1, "x2"))
    a = (atom(1, "a"),)
    assert gradient_commutator(b, x, a).is_zero()


def test_verify_distinct_algebras_trivial():
    rep = verify_boundary_expansion((0,), (1,), (2,))
    assert rep.passed
    assert rep.lhs_is_zero
    assert rep.ledger.max_word_length == 0
    assert not rep.ledger.groups


def test_verify_single_shared_algebra():
    rep = verify_boundary_expansion((0,), (0,), (0,))
    assert rep.passed
    assert not rep.lhs_is_zero
    assert rep.ledger.max_word_length <= 2
    assert rep.residual.is_zero()


def test_verify_vanishing_case():
    rep = verify_boundary_expansion((0,), (0, 1), (1,))
    assert rep.must_vanish
    assert rep.lhs_is_zero
    assert rep.passed


def test_verify_maximal_pattern():
    # n = k + m - 1 is the longest middle word with a nonvanishing expression
    rep = verify_boundary_expansion((0, 1), (1, 0, 1), (1, 0))
    assert rep.passed
    assert not rep.must_vanish
    assert not rep.lhs_is_zero
    assert rep.residual.is_zero()
    assert rep.ledger.max_word_length <= 4


def test_verify_just_past_maximal():
    rep = verify_boundary_expansion((0, 1), (1, 0, 1, 0), (0, 1))
    assert rep.must_vanish
    assert rep.lhs_is_zero
    assert rep.passed


def test_verify_fails_on_a_ledger_word_past_the_bound(monkeypatch):
    # the commutator's words are never longer than len(b) + len(a), so a boundary
    # sum that leaves one (here the whole word bxa) must fail the check
    monkeypatch.setattr(freewords, "_boundary_main_sum",
                        lambda t, b, x, a: {(b + x + a, ()): 1})
    rep = verify_boundary_expansion((0, 1), (1, 0, 1), (1, 0))
    assert not rep.passed
    assert not rep.ledger.within_bound
    assert not rep.residual.is_zero()
    assert rep.ledger.max_word_length == 7


def test_verify_validation():
    with pytest.raises(ResourceLimitError):
        verify_boundary_expansion((0,), (0, 1, 0, 1, 0), (0,))
    with pytest.raises(ValueError):
        verify_boundary_expansion((0, 0), (1,), (2,))


def test_expansion_sweep_small():
    reports = expansion_sweep(max_x=3, max_side=2, algebras=2)
    assert len(reports) > 20
    for rep in reports:
        assert rep.passed
        if rep.must_vanish:
            assert rep.lhs_is_zero
        bound = len(rep.b_types) + len(rep.a_types)
        assert rep.ledger.max_word_length <= max(bound, 0)


def test_expression_arithmetic():
    x = expression((atom(0, "x"),), coeff=Fraction(2, 3))
    assert sub(x, x).is_zero()
    assert add(x, x) == expression((atom(0, "x"),), coeff=Fraction(4, 3))

def test_expression_items_repr_and_product():
    x, y = atom(0, "x"), atom(1, "y")
    ex, ey = expression((x,)), expression((y,), coeff=2)
    xy = multiply(ex, ey)
    assert xy == expression((x, y), coeff=2)
    assert xy.items() == [(((x, y), ()), 2)]
    assert repr(xy) == f"Expression(2*phi[]*word{[x, y]})"
    assert repr(Expression({})) == "Expression(0)"
    assert expression((x,), 0).is_zero()


def test_circled_single_atom_has_no_phi():
    # phi of a single atom is structurally zero, circled or not: the junction
    # rewrite adds no -phi(C) v term, so the product is the plain atom's
    x, y = atom(0, "x"), atom(0, "y")
    circled = Letter(0, x.factors, True)
    merged = x.factors + y.factors
    want = Expression({((Letter(0, merged, True),), ()): 1, ((), (PhiSymbol(0, merged),)): 1})
    ey = expression((y,))
    assert multiply(expression((circled,)), ey) == want
    assert multiply(expression((x,)), ey) == want


def test_sweep_ledger_coefficients_are_ints():
    coeffs = [
        coeff
        for rep in expansion_sweep(max_x=3, max_side=2, algebras=2)
        for group in rep.ledger.groups.values()
        for coeff in group.terms.values()
    ]
    assert coeffs
    assert all(type(c) is int for c in coeffs)


def _relabel_and_filter(max_x, max_side, algebras):
    """Every reduced type triple in product order, relabeled by first
    appearance; the first triple of each relabeling class is kept."""

    def reduced(limit):
        return [
            seq
            for n in range(limit + 1)
            for seq in itertools.product(range(algebras), repeat=n)
            if all(left != right for left, right in zip(seq, seq[1:]))
        ]

    sides, middles = reduced(max_side), reduced(max_x)
    seen = set()
    out = []
    for bt in sides:
        for xt in middles:
            head_labels = {}
            head = tuple(
                tuple(head_labels.setdefault(t, len(head_labels)) for t in seq)
                for seq in (bt, xt)
            )
            for at in sides:
                relabel = dict(head_labels)
                canon = head + (tuple(relabel.setdefault(t, len(relabel)) for t in at),)
                if canon not in seen:
                    seen.add(canon)
                    out.append(canon)
    return out


def unverified(*args, **kwargs):
    raise AssertionError("a pattern was verified")


def listed(t, b_types, x_types, a_types):
    return b_types, x_types, a_types


def walk(monkeypatch, max_x, max_side, algebras):
    """The patterns expansion_sweep lists, with verification stubbed out."""
    monkeypatch.setattr(freewords, "_verify", listed)
    return expansion_sweep(max_x=max_x, max_side=max_side, algebras=algebras)


def test_growth_words_match_relabel_and_filter(monkeypatch):
    for max_x, max_side, algebras in itertools.product(range(6), range(4), range(5)):
        patterns = [
            (bt, xt, at)
            for bt, used_b in _growth_words(max_side, 0, algebras)
            for xt, used_x in _growth_words(max_x, used_b, algebras)
            for at, _ in _growth_words(max_side, used_x, algebras)
        ]
        assert patterns == _relabel_and_filter(max_x, max_side, algebras)
        if algebras and len(patterns) <= MAX_SWEEP_PATTERNS:
            assert walk(monkeypatch, max_x, max_side, algebras) == patterns


def test_sweep_sizes_against_ceiling(monkeypatch):
    sizes = [len(walk(monkeypatch, max_x, 3, 3)) for max_x in (4, 5, 6)]
    assert sizes == [3715, 7587, 15331]
    assert max(sizes) <= MAX_SWEEP_PATTERNS
    # 524,046 and 1,573,887 patterns; the walk stops once past the ceiling
    monkeypatch.setattr(freewords, "_verify", unverified)
    for max_x, max_side, algebras in ((5, 4, 4), (6, 4, 4)):
        with pytest.raises(ResourceLimitError, match="patterns"):
            expansion_sweep(max_x=max_x, max_side=max_side, algebras=algebras)
    # words of every length at two algebras: the letter work passes its
    # ceiling first
    with pytest.raises(ResourceLimitError, match="letter work"):
        expansion_sweep(max_x=10**9, max_side=3, algebras=2)


def test_sweep_work_sums_pattern_work(monkeypatch):
    # at (n, 0, 2) the sweep lists one x of each length 0..n, so its work is
    # the sum of (L + 1) L over those lengths, n (n + 1) (n + 2) / 3
    assert 354 * 355 * 356 // 3 <= MAX_LETTER_WORK < 355 * 356 * 357 // 3
    assert [len(xt) for _, xt, _ in walk(monkeypatch, 354, 0, 2)] == list(range(355))
    monkeypatch.setattr(freewords, "_verify", unverified)
    with pytest.raises(ResourceLimitError, match="letter work"):
        expansion_sweep(max_x=355, max_side=0, algebras=2)


def test_sweep_work_against_ceiling(monkeypatch):
    works = [
        sum(_pattern_work(*map(len, pattern)) for pattern in walk(monkeypatch, *cfg))
        for cfg in ((5, 3, 3), (6, 3, 3), (4, 3, 4))
    ]
    assert works == [4047512, 10670072, 9873852]
    assert max(works) <= MAX_LETTER_WORK


def test_sweep_letter_ceiling_before_any_pattern(monkeypatch):
    # 20,000 patterns, within their ceiling, of up to 19,999 letters each
    monkeypatch.setattr(freewords, "_verify", unverified)
    with pytest.raises(ResourceLimitError, match="letter work"):
        expansion_sweep(max_x=19999, max_side=0, algebras=2)


def test_single_pattern_letter_ceiling(monkeypatch):
    # 60 letters in each of b, x and a: 61^3 * 180 = 4.1e7 units
    monkeypatch.setattr(freewords, "_verify", unverified)
    side = tuple(i % 2 for i in range(60))
    assert _pattern_work(60, 60, 60) > MAX_LETTER_WORK
    with pytest.raises(ResourceLimitError, match="letter work"):
        verify_boundary_expansion(side, side, side, max_x=60, max_side=60)


def test_one_table_per_verification(monkeypatch):
    # the commutator, the boundary sum and the ledger of a pattern share one
    # table, and a sweep shares one across all its patterns
    real, built = freewords._Table, []

    def counted():
        built.append(None)
        return real()

    monkeypatch.setattr(freewords, "_Table", counted)
    rep = verify_boundary_expansion((0, 1), (1, 0, 1), (1, 0))
    assert len(built) == 1 and not rep.lhs_is_zero
    built.clear()
    assert len(expansion_sweep(max_x=4, max_side=3, algebras=3)) == 3715
    assert len(built) == 1


def test_atoms_are_interned_once_per_table():
    # the sweep asks for the same b, x and a atoms many times; the table keeps
    # their id word, which is the word a fresh interning gives
    t = freewords._Table()
    b = freewords._atoms(t, "b", (0, 1, 0))
    size = len(t.values)
    assert freewords._atoms(t, "b", (0, 1, 0)) is b
    assert len(t.values) == size
    assert b == tuple(t.intern(atom(alg, f"b{i}")) for i, alg in enumerate((0, 1, 0), 1))
    assert freewords._atoms(t, "a", (0, 1, 0)) != b


def test_expansion_sweep_order():
    reports = expansion_sweep(max_x=2, max_side=2, algebras=3)
    assert [(r.b_types, r.x_types, r.a_types) for r in reports] == _relabel_and_filter(2, 2, 3)


def four_term_commutator(eb, ex, ea):
    """b D(x a) - D(b x a) - b D(x) a + D(b x) a, term by term from the
    product, generator, sum and difference."""
    xa = multiply(ex, ea)
    return add(
        sub(sub(multiply(eb, apply_generator(xa)), apply_generator(multiply(eb, xa))),
            multiply(multiply(eb, apply_generator(ex)), ea)),
        multiply(apply_generator(multiply(eb, ex)), ea),
    )


def _oracle_ledger(b, x, a):
    """The ledger groups and residual of the four-term route."""
    words = (expression(w) for w in (b, x, a))
    t = freewords._Table()
    boundary = t.decode(_boundary_main_sum(t, *(tuple(map(t.intern, w)) for w in (b, x, a))))
    ledger = sub(four_term_commutator(*words), boundary)
    groups, residual = {}, {}
    for (w, phis), coeff in ledger.terms.items():
        groups.setdefault((len(w), tuple(lt.algebra for lt in w)), {})[(w, phis)] = coeff
        if len(w) > len(b) + len(a):
            residual[(w, phis)] = coeff
    return groups, residual


def test_gradient_commutator_matches_four_term_oracle():
    for max_x, max_side in ((3, 2), (2, 3)):
        for rep in expansion_sweep(max_x=max_x, max_side=max_side, algebras=3):
            # the atoms verify_boundary_expansion substitutes
            b, x, a = (
                tuple(atom(t, f"{name}{i}") for i, t in enumerate(types, 1))
                for name, types in zip("bxa", (rep.b_types, rep.x_types, rep.a_types))
            )
            expected = four_term_commutator(*(expression(w) for w in (b, x, a)))
            assert gradient_commutator(b, x, a).terms == expected.terms
            groups, residual = _oracle_ledger(b, x, a)
            assert {sig: g.terms for sig, g in rep.ledger.groups.items()} == groups
            assert rep.residual.terms == residual
            assert rep.lhs_is_zero == expected.is_zero()


def _random_word(rng, length, names):
    """Reduced word over two algebras; about half its letters are circled
    two-atom products, whose phi is a nonzero symbol."""
    letters = []
    for _ in range(length):
        alg = rng.choice([t for t in range(2) if not letters or t != letters[-1].algebra])
        letter = atom(alg, next(names))
        if rng.random() < 0.5:
            letter = Letter(alg, letter.factors + atom(alg, next(names)).factors, True)
        letters.append(letter)
    return tuple(letters)


def test_gradient_commutator_oracle_at_circled_letters():
    rng = random.Random(1802)
    names = (f"s{i}" for i in itertools.count())
    nonzero = both_circled = 0
    for _ in range(150):
        b, x, a = (_random_word(rng, rng.randint(1, 3), names) for _ in range(3))
        expected = four_term_commutator(*(expression(w) for w in (b, x, a)))
        assert gradient_commutator(b, x, a).terms == expected.terms
        nonzero += not expected.is_zero()
        for left, right in ((b, x), (x, a)):
            if left[-1].algebra == right[0].algebra:
                both_circled += left[-1].circled and right[0].circled
    assert nonzero >= 30 and both_circled >= 20


def test_leibniz_regrouping_at_phi_carrying_inputs():
    # C(b, x) a - C(b, x a) is the four-term sum for any expressions, with
    # several terms, phi symbols and coefficients other than 1
    rng = random.Random(68)
    names = (f"s{i}" for i in itertools.count())

    def drawn():
        out = Expression({})
        for _ in range(rng.randint(1, 3)):
            w = _random_word(rng, rng.randint(0, 2), names)
            phis = tuple(
                PhiSymbol(rng.randrange(3), atom(0, next(names)).factors * 2)
                for _ in range(rng.randint(0, 2))
            )
            out = add(out, expression(w, coeff=rng.choice((-2, -1, 1, 3)), phis=phis))
        return out

    for _ in range(60):
        eb, ex, ea = drawn(), drawn(), drawn()
        regrouped = sub(multiply(leibniz_defect(eb, ex), ea), leibniz_defect(eb, multiply(ex, ea)))
        assert regrouped == four_term_commutator(eb, ex, ea)


def test_sweep_reports_equal_single_pattern_reports():
    # the sweep shares one table and one E(b, x) across a run of patterns;
    # each report must be the one the pattern gets alone
    for max_x, max_side, algebras in ((3, 2, 3), (2, 3, 3)):
        reports = expansion_sweep(max_x=max_x, max_side=max_side, algebras=algebras)
        assert len(reports) > 300
        for rep in reports:
            alone = verify_boundary_expansion(
                rep.b_types, rep.x_types, rep.a_types, max_x=max_x, max_side=max_side
            )
            assert rep == alone
            assert {sig: g.terms for sig, g in rep.ledger.groups.items()} == {
                sig: g.terms for sig, g in alone.ledger.groups.items()
            }
            assert rep.residual.terms == alone.residual.terms
            assert (rep.ledger.max_word_length, rep.ledger.bound) == (
                alone.ledger.max_word_length, alone.ledger.bound
            )


def test_calls_keep_nothing():
    # tables, their cores and the sweep's E(b, x) live for one call, so new letters in
    # every round leave no more traced memory than was found
    def calls(i):
        expansion_sweep(max_x=3, max_side=2, algebras=3)
        verify_boundary_expansion((0, 1), (1, 0, 1)[: 1 + i % 3], (1, 0))
        e1 = expression((atom(0, f"u{i}"), atom(1, f"v{i}")))
        multiply(e1, expression((atom(1, f"w{i}"), atom(0, f"z{i}")), coeff=3))

    calls(0)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(1, 9):
            calls(i)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 0.5 * 2**20
    assert not [
        name for name, value in vars(freewords).items()
        if not name.startswith("__")
        and isinstance(value, (dict, list, set, freewords._Table))
    ]


def _public_keys(expr):
    """Every letter and phi of an expression's keys, failing on an interned id."""
    for w, phis in expr.terms:
        assert type(w) is tuple and type(phis) is tuple
        assert all(type(lt) is Letter for lt in w)
        assert all(type(p) is PhiSymbol for p in phis)
        yield from w
        yield from phis


def test_results_are_decoded():
    u, v, w = atom(0, "u"), atom(0, "v", star=True), atom(1, "w")
    eu, ev = expression((u,)), expression((v, w))
    prod = multiply(eu, ev)
    assert len(prod.terms) == 2
    for expr in (prod, apply_generator(prod), circle(apply_generator(eu))):
        assert not expr.is_zero()
        assert list(_public_keys(expr))
    for rep in expansion_sweep(max_x=3, max_side=2, algebras=2):
        for group in rep.ledger.groups.values():
            list(_public_keys(group))
        list(_public_keys(rep.residual))
    rep = verify_boundary_expansion((0, 1), (1, 0, 1), (1, 0))
    assert sum(len(list(_public_keys(g))) for g in rep.ledger.groups.values())


def test_results_of_separate_calls_combine():
    b = (atom(0, "b1"), atom(1, "b2"))
    x = (atom(1, "x1"), atom(0, "x2"))
    a = (atom(0, "a1"), atom(1, "a2"))
    whole = reduce_product(b, x, a)
    assert multiply(reduce_product(b, x, ()), expression(a)) == whole
    assert multiply(expression(b), reduce_product((), x, a)) == whole
    assert whole.terms == brute_product(b + x + a, random.Random(23))
    # a product decoded from one table and interned into another
    assert multiply(whole, expression(())) == whole
    assert gradient_commutator(b, x, a) == sub(
        multiply(leibniz_defect(expression(b), expression(x)), expression(a)),
        leibniz_defect(expression(b), reduce_product((), x, a)))


def _reference_reports(reports):
    """The reference verifier's reports of the same patterns, on one table."""
    t = freewords._Table()
    return [oracles._verify(t, r.b_types, r.x_types, r.a_types) for r in reports]


@pytest.mark.parametrize("sweep", [(4, 3, 3), (6, 3, 3), (4, 3, 4), (354, 0, 2)],
                         ids=lambda sweep: "-".join(map(str, sweep)))
def test_sweep_reports_equal_the_reference_route(sweep):
    max_x, max_side, algebras = sweep
    reports = expansion_sweep(max_x=max_x, max_side=max_side, algebras=algebras)
    assert reports == _reference_reports(reports)


def _types(choose, length, algebras):
    """A reduced type tuple of the given length over the algebras, each type
    picked by choose from those that may follow."""
    out = []
    for _ in range(length):
        out.append(choose([t for t in range(algebras) if not out or t != out[-1]]))
    return tuple(out)


@st.composite
def _patterns(draw):
    algebras = draw(st.integers(2, 4))
    sizes = draw(st.integers(0, 7)), draw(st.integers(0, 10)), draw(st.integers(0, 7))
    return tuple(_types(lambda ts: draw(st.sampled_from(ts)), size, algebras) for size in sizes)


@settings(max_examples=150, deadline=None)
@given(pattern=_patterns())
def test_drawn_patterns_match_the_reference_route(pattern):
    rep = freewords._verify(freewords._Table(), *pattern)
    assert rep == oracles._verify(freewords._Table(), *pattern)
    b, x, a = (tuple(atom(t, f"{name}{i}") for i, t in enumerate(types, 1))
               for name, types in zip("bxa", pattern))
    t = freewords._Table()
    eb, ex, ea = ({(tuple(map(t.intern, w)), ()): 1} for w in (b, x, a))
    reference = oracles._commutator_into(t, {}, eb, ex, ea, oracles._defect_into(t, {}, eb, ex))
    assert gradient_commutator(b, x, a) == t.decode(reference)
    assert rep.lhs_is_zero == (not reference)


def _expression(rng, names, coeffs):
    """A sum of one to three words with phi symbols and the given coefficients."""
    out = Expression({})
    for _ in range(rng.randint(1, 3)):
        w = _random_word(rng, rng.randint(0, 3), names)
        phis = tuple(PhiSymbol(rng.randrange(2), atom(0, next(names)).factors * 2)
                     for _ in range(rng.randint(0, 2)))
        out = add(out, expression(w, coeff=rng.choice(coeffs), phis=phis))
    return out


def test_multiply_matches_the_reference_route():
    # phi-carrying terms, circled letters, and int and Fraction coefficients
    rng = random.Random(4033)
    names = (f"s{i}" for i in itertools.count())
    fractional = 0
    for coeffs in ((-2, -1, 1, 3), (Fraction(1, 2), Fraction(-2, 3), 2)):
        for _ in range(80):
            e1, e2 = _expression(rng, names, coeffs), _expression(rng, names, coeffs)
            product = multiply(e1, e2)
            assert product == oracles._on_ids(oracles._multiply_into, e1, e2)
            fractional += any(type(c) is Fraction for c in product.terms.values())
    assert fractional >= 20


def test_locality_lemma_decides_only_vanishing_patterns():
    # where depth(b, x) + depth(x, a) < len(x) the reference route must give a
    # zero left side and an empty boundary sum, which _verify then skips
    rng = random.Random(1802)
    patterns = [(r.b_types, r.x_types, r.a_types)
                for r in expansion_sweep(max_x=4, max_side=3, algebras=3)]
    for _ in range(400):
        algebras = rng.randint(2, 4)
        patterns.append(tuple(_types(rng.choice, rng.randint(0, size), algebras)
                              for size in (5, 8, 5)))
    decided = 0
    for b_types, x_types, a_types in patterns:
        if _junction_depth(b_types, x_types) + _junction_depth(x_types, a_types) >= len(x_types):
            continue
        decided += 1
        t = freewords._Table()
        b, x, a = (freewords._atoms(t, name, types)
                   for name, types in zip("bxa", (b_types, x_types, a_types)))
        eb, ex, ea = ({(w, ()): 1} for w in (b, x, a))
        assert oracles._commutator_into(t, {}, eb, ex, ea, oracles._defect_into(t, {}, eb, ex)) == {}
        assert oracles._boundary_main_sum(t, b, x, a) == {}
    assert decided > 3000


def _junction_depth(u, v):
    """depth(u, v) for two type tuples."""
    return freewords._depth(reversed(u), v)


def test_depth_counts_the_letters_that_meet():
    assert _junction_depth((), (0, 1)) == _junction_depth((0, 1), ()) == 0
    assert _junction_depth((2, 0, 1), (1, 0, 2)) == 3
    assert _junction_depth((2, 0, 1), (1, 2, 0)) == 1
    assert _junction_depth((0, 1, 0), (1, 0)) == 0
    assert _junction_depth((1, 0), (0, 1, 0)) == 2
