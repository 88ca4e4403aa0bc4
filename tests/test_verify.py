"""Verification suite plumbing and the cheaper smeared checks.

The expensive full-battery runs live in the acceptance tests; here each
check gets a small but real exercise plus its error contract.
"""

import json
import math

import pytest

from barrierkets import (
    BarrierModel,
    Channel,
    DomainError,
    GaussianPacket,
    Observable,
    QuadratureSpec,
    ResidualReport,
    SUITE_CHECK_NAMES,
    SignLabel,
    build_test_function,
    check_commutators,
    check_delta_normalization,
    check_eigen_equation,
    check_invariance_battery,
    check_non_member,
    default_battery,
    run_default_suite,
)

MODEL = BarrierModel()
SPEC = QuadratureSpec()


def test_default_battery_layout(battery):
    assert len(battery) == 6
    centers = sorted({t.packet.center for f in battery for t in f.terms})
    assert centers == [-20.0, 21.0]


def test_commutators_pass(battery):
    report = check_commutators(battery[0], battery[1], SPEC)
    assert report.passed
    assert report.residual < 1e-8
    names = [w[0] for w in report.witnesses]
    assert names == ["[Q,P] canonical", "[H,Q] momentum", "[H,P] boundary"]


def test_commutators_with_zero_partner(battery):
    zero = battery[0].scaled(0.0)
    report = check_commutators(battery[0], zero, SPEC)
    assert report.residual == 0.0


def test_commutators_reject_model_mixing(battery):
    other = build_test_function(BarrierModel(v0=3.0),
                                GaussianPacket(center=-20.0, width=1.0))
    with pytest.raises(DomainError):
        check_commutators(battery[0], other, SPEC)


def test_momentum_eigen_equation(battery):
    report = check_eigen_equation(MODEL, 2.0, Channel.LEFT, SignLabel.PLUS,
                                  battery[:1], SPEC, observable=Observable.P)
    assert report.passed
    assert report.residual < 1e-8


def test_position_eigen_route(battery):
    report = check_eigen_equation(MODEL, -19.0, Channel.LEFT, SignLabel.PLUS,
                                  battery[:1], SPEC, observable=Observable.Q)
    assert report.passed


def test_eigen_equation_rejects_empty_battery():
    with pytest.raises(DomainError):
        check_eigen_equation(MODEL, 1.0, Channel.LEFT, SignLabel.PLUS, [],
                             SPEC)
    with pytest.raises(DomainError):
        check_eigen_equation(MODEL, -1.0, Channel.LEFT, SignLabel.PLUS,
                             default_battery(MODEL)[:1], SPEC)


def test_delta_normalization_momentum():
    report = check_delta_normalization(MODEL, SignLabel.PLUS, (2.0, 0.5),
                                       Channel.LEFT, SPEC, mode="momentum")
    assert report.passed
    assert report.residual < 1e-8


def test_delta_normalization_rejects_bad_probe():
    with pytest.raises(DomainError):
        check_delta_normalization(MODEL, SignLabel.PLUS, (0.5, 0.5),
                                  Channel.LEFT, SPEC, mode="energy")
    with pytest.raises(DomainError):
        check_delta_normalization(MODEL, SignLabel.PLUS, (5.0, 0.5),
                                  Channel.LEFT, SPEC, mode="angular")


def test_invariance_small_order(battery):
    report = check_invariance_battery(battery[0], 2, SPEC)
    assert report.passed
    assert report.residual == 0.0
    assert report.witnesses[-1][0].startswith("largest norm")


def test_invariance_rejects_order_beyond_cap(battery):
    with pytest.raises(DomainError):
        check_invariance_battery(battery[0], battery[0].order_cap + 1, SPEC)
    with pytest.raises(DomainError):
        check_invariance_battery(battery[0], -1, SPEC)


def test_non_member_is_flagged():
    report = check_non_member(MODEL, SPEC)
    assert report.passed
    assert len(report.witnesses) == 6


def test_report_serialization():
    report = ResidualReport(check_name="demo", residual=math.nan,
                            tolerance=0.5, witnesses=(("w", math.nan),),
                            passed=False, inconclusive=True)
    data = report.to_dict()
    assert data["residual"] is None
    assert data["witnesses"][0][1] is None
    json.dumps(data)


def test_suite_selection_and_tolerance_override():
    reports = run_default_suite(MODEL, SPEC,
                                select=["commutators", "non_member_flagged"])
    assert [r.check_name for r in reports] == ["commutators",
                                               "non_member_flagged"]
    assert all(r.passed for r in reports)
    # The momentum delta check's residual sits far above 1e-16.
    tight = run_default_suite(MODEL, SPEC,
                              select=["delta_normalization_momentum"],
                              tolerance=1e-16)
    assert tight[0].tolerance == 1e-16
    assert not tight[0].passed and not tight[0].inconclusive


def test_suite_rejects_bad_selection():
    with pytest.raises(DomainError):
        run_default_suite(MODEL, SPEC, select=[])
    with pytest.raises(DomainError):
        run_default_suite(MODEL, SPEC, select=["nonexistent_check"])
    assert len(SUITE_CHECK_NAMES) == 8
