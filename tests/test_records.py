"""The package's records: named tuples, frozen, with the fields and reprs they had.

Each record type is a collections.namedtuple subclass, so it is indexable
and iterable; these checks pin its field order, its repr
Name(field=value, ...), and that it is slotted, so no attribute can be set
on it.
FusionIsometry alone compares and hashes by identity.
"""

from fractions import Fraction

import pytest

import oracles
from qgs import chebyshev, estimates, freewords, fusion, spectrum, templieb
from qgs.chebyshev import QParameter

# each record type with its fields, in order
FIELDS = {
    oracles.ChebyshevPoly: "degree coeffs",
    chebyshev.QParameter: "q N",
    spectrum.SpectralDatum: "alpha delta n multiplicity",
    spectrum.SpectralRow: "alpha n qdim delta gap",
    spectrum.ResolventCoeff: "alpha eps resolvent regularized",
    spectrum.AmenabilityReport: "n_max warmup threshold checkpoints ratios envelope "
                                "liminf_estimate satisfied verdict note",
    fusion.DimensionTable: "param n qdim",
    fusion.GrowthProbe: "alpha_probe q0 n_root limsup_product",
    fusion.FusionCheck: "param alpha beta channels n_product n_sum qdim_product qdim_sum "
                        "classical_ok quantum_ok",
    estimates.GapEvaluation: "alpha beta gamma lhs rhs ratio",
    estimates.GapScan: "param alpha_max gamma_max sup_ratio argmax window_low_sup "
                       "window_high_sup stable",
    estimates.HSCoefficient: "alpha beta gamma t gap_coefficient step_coefficient damping",
    estimates.HSCertificate: "param t alpha_max terms compressed_terms partial_sums "
                             "ratio_value verdict",
    estimates.RegimeClassification: "kac ighs ghs",
    templieb.FusionIsometry: "param alpha beta gamma bits coefficients",
    templieb.CommutatorEstimate: "alpha r s k l weighted_defect reference ratio constant passed",
    templieb.JWReportRow: "n rank idempotency annihilation trace_error trace_rel_error",
    freewords.Letter: "algebra factors circled",
    freewords.PhiSymbol: "algebra factors",
    freewords.RemainderLedger: "groups max_word_length bound within_bound",
    freewords.ExpansionReport: "b_types x_types a_types lhs_is_zero must_vanish ledger "
                               "residual passed",
}


def _instances():
    """One instance of each record type, from the library calls that build it."""
    p = QParameter("0.5", 2)
    report = freewords.verify_boundary_expansion((0, 1), (1, 0, 1), (1, 0))
    return [
        oracles.build_poly(3), p, next(spectrum.spectral_stream(p)),
        spectrum.spectral_rows(p, 2)[-1], spectrum.resolvent_coeff(p, 2, 0.5),
        spectrum.amenability_criterion(p, 100, warmup=10), fusion.dims(p, 2),
        fusion.growth_rate(p, 4), fusion.fusion_check(p, 1, 2), estimates.gap(p, 3, 4, 1),
        estimates.gap_constant_scan(QParameter(Fraction(1, 2), 2), 10, 1),
        estimates.hs_coefficient(p, 3, 4, 1, 0.5), estimates.hs_certificate(p, 0.5, 20),
        estimates.regime_classify(p), templieb.fusion_isometry(p, 2, 1, 1),
        templieb.commutator_estimate(p, 2, 1, 1, 1, 1), templieb.jw_report(p, 2)[-1],
        freewords.atom(0, "x"), freewords.PhiSymbol(0, ()), report.ledger, report,
    ]


@pytest.mark.parametrize("record", _instances(), ids=lambda r: type(r).__name__)
def test_record_is_a_frozen_named_tuple_with_its_old_repr(record):
    kind = type(record)
    assert kind._fields == tuple(FIELDS[kind].split())
    values = [getattr(record, name) for name in kind._fields]
    assert list(record) == values  # indexable and iterable in field order
    assert repr(record) == "%s(%s)" % (
        kind.__name__, ", ".join(f"{name}={value!r}" for name, value in zip(kind._fields, values)))
    for name in (*kind._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert not hasattr(record, "__dict__")  # slotted: it holds its fields alone


def test_every_record_type_is_checked():
    assert {type(r) for r in _instances()} == set(FIELDS)


def test_qparameter_replace_validates():
    p = QParameter(Fraction(1, 2), 2)
    assert p._replace(q=Fraction(1, 3)) == QParameter(Fraction(1, 3), 2)
    assert p._replace(q="0.25").q == 0.25  # read as a decimal, as the constructor does
    with pytest.raises(ValueError, match="q must lie in"):
        p._replace(q=Fraction(3, 2))
    with pytest.raises(ValueError, match="is below N = 3"):
        p._replace(N=3)


def test_amenability_report_note_keeps_its_default():
    report = spectrum.amenability_criterion(QParameter(Fraction(1, 2), 2), 100, warmup=10)
    assert report.note == "numerical evidence"
    assert spectrum.AmenabilityReport(*report[:-1]) == report


class _Untouchable:
    """A coefficient map that fails any hash or comparison made on it."""

    def __hash__(self):
        raise AssertionError("hashed the coefficients")

    def __eq__(self, other):
        raise AssertionError("compared the coefficients")


def test_fusion_isometry_compares_and_hashes_by_identity():
    p = QParameter("0.5", 2)
    a, b = (templieb.fusion_isometry(p, 2, 1, 1) for _ in range(2))
    assert tuple(a) == tuple(b)  # the same coefficients, built twice
    assert a == a and a != b and not a == b and not a != a
    assert len({a, b}) == 2
    c, d = (templieb.FusionIsometry(p, 1, 1, 0, 64, _Untouchable()) for _ in range(2))
    assert hash(c) != hash(d) and {c: 1}[c] == 1 and c != d
