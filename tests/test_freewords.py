"""Formal reduced-word calculus: rewriting, generator rule, boundary expansion.

The oracle here is a brute-force expander that applies the junction
rewrite u v = (uv) circled + phi(uv) 1 - [u circled] phi(u) v
- [v circled] phi(v) u - [both] phi(u) phi(v) 1 at a RANDOMLY chosen
junction each step and canonicalizes at the end.  Agreement with the
library product over many random orders checks both the expansion and
its order-independence.
"""

import itertools
import random
from fractions import Fraction

import pytest

from qgs.errors import ResourceLimitError
from qgs.freewords import (
    Expression,
    Letter,
    PhiSymbol,
    _growth_words,
    apply_generator,
    atom,
    circle,
    expansion_sweep,
    gradient_commutator,
    hs_propagation_bound,
    multiply,
    reduce_product,
    star,
    verify_boundary_expansion,
    word,
)


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
    assert out == Expression.from_word(x)


def test_reduce_product_distinct_algebras():
    b = (atom(0, "b"),)
    x = (atom(1, "x"),)
    a = (atom(2, "a"),)
    out = reduce_product(b, x, a)
    assert out == Expression.from_word(b + x + a)


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
    a1, a2, a3, a4 = (Expression.from_word((atom(0, f"a{i}"),)) for i in range(1, 5))
    left, right = multiply(a1, a2), multiply(a3, a4)
    out = multiply(left, right)
    assert out == multiply(multiply(left, a3), a4)
    letters = tuple(atom(0, f"a{i}") for i in range(1, 5))
    assert out.terms == brute_product(letters, random.Random(5))
    # a different-algebra product between them: its phi term joins them again
    b1, b2 = (Expression.from_word((atom(1, f"b{i}"),)) for i in (1, 2))
    middle = multiply(b1, b2)
    assert multiply(multiply(left, middle), right) == multiply(left, multiply(middle, right))


def test_apply_generator_single_letter():
    x = atom(0, "x")
    out = apply_generator(Expression.from_word((x,)))
    (key,) = out.terms
    w, phis = key
    assert phis == ()
    assert len(w) == 1
    assert w[0].factors == (("g", x.factors),)


def test_apply_generator_leibniz():
    x1 = atom(0, "x1")
    x2 = atom(1, "x2")
    out = apply_generator(Expression.from_word((x1, x2)))
    assert len(out.terms) == 2
    for (w, _), coeff in out.terms.items():
        assert coeff == 1
        assert len(w) == 2
        assert sum(1 for lt in w if lt.factors[0][0] == "g") == 1


def test_apply_generator_kills_scalars():
    one = Expression.from_word((), coeff=3)
    assert apply_generator(one).is_zero()


def test_apply_generator_ignores_circling():
    fused = Letter(0, atom(0, "u").factors + atom(0, "v").factors, True)
    bare = Letter(0, fused.factors, False)
    lhs = apply_generator(Expression.from_word((fused,)))
    rhs = apply_generator(Expression.from_word((bare,)))
    assert lhs == rhs


def test_circle_drops_scalars_and_centers():
    scalar = Expression.from_word((), coeff=5)
    assert circle(scalar).is_zero()
    x = atom(0, "x")
    keep = Expression.from_word((x,))
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


def test_hs_propagation_bound():
    assert hs_propagation_bound({0: 0.0}, 1.0, 1.0, 1.0, 1, 1, 0.0) == 0.0
    assert hs_propagation_bound({0: 1.0}, 1.0, 1.0, 1.0, 1, 1, 0.0) == 2.0
    base = hs_propagation_bound({0: 1.0, 1: 0.5}, 2.0, 1.5, 1.25, 2, 1, 0.75)
    doubled = hs_propagation_bound({0: 2.0, 1: 1.0}, 2.0, 1.5, 1.25, 2, 1, 0.75)
    assert doubled - 2 * 0.75 == pytest.approx(2 * (base - 2 * 0.75), rel=1e-12)
    assert hs_propagation_bound({}, 1.0, 1.0, 1.0, 1, 1, 0.5) == 1.0
    with pytest.raises(ValueError):
        hs_propagation_bound({0: -1.0}, 1.0, 1.0, 1.0, 1, 1, 0.0)


def test_star_reverses_products():
    u = atom(0, "u")
    v = atom(1, "v")
    prod = reduce_product((), (u, v), ())
    starred = star(prod)
    (key,) = starred.terms
    w, _ = key
    assert w[0].algebra == 1 and w[1].algebra == 0
    assert w[0].factors[0][2] and w[1].factors[0][2]
    assert star(starred) == prod


def test_expression_arithmetic():
    x = Expression.from_word((atom(0, "x"),), coeff=Fraction(2, 3))
    assert (x - x).is_zero()
    assert (x + x) == Expression.from_word((atom(0, "x"),), coeff=Fraction(4, 3))

def test_scalar_coefficients_stay_exact():
    x = (atom(0, "x"),)
    e = Expression.from_word(x)
    for scalar in (Fraction(2, 3), 2 / 3, 0.5):
        (coeff,) = (scalar * e).terms.values()
        assert type(coeff) is Fraction and coeff == Fraction(scalar)
    (coeff,) = (e * Fraction(4, 2)).terms.values()
    assert type(coeff) is int and coeff == 2
    (coeff,) = Expression.from_word(x, coeff=Fraction(-6, 3)).terms.values()
    assert type(coeff) is int and coeff == -2
    (coeff,) = Expression({(x, ()): 1.5}).terms.values()
    assert coeff == Fraction(3, 2)


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


def test_growth_words_match_relabel_and_filter():
    for max_x, max_side, algebras in itertools.product(range(6), range(4), range(5)):
        patterns = [
            (bt, xt, at)
            for bt, used_b in _growth_words(max_side, 0, algebras)
            for xt, used_x in _growth_words(max_x, used_b, algebras)
            for at, _ in _growth_words(max_side, used_x, algebras)
        ]
        assert patterns == _relabel_and_filter(max_x, max_side, algebras)


def test_expansion_sweep_order():
    reports = expansion_sweep(max_x=2, max_side=2, algebras=3)
    assert [(r.b_types, r.x_types, r.a_types) for r in reports] == _relabel_and_filter(2, 2, 3)
