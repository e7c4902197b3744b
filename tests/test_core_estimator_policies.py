import pytest

from repro.core.estimator import TransientEstimate, estimate_transient
from repro.core.policies import (
    AlwaysAcceptPolicy,
    CFARPolicy,
    GradientFaithfulPolicy,
    OnlyTransientsPolicy,
)


def test_estimator_equations_match_fig8():
    # Em(i) = -5.0; rerun EmR(i) = -4.2 (transient +0.8); Em(i+1) = -4.0.
    est = estimate_transient(em_prev=-5.0, em_rerun=-4.2, em_new=-4.0)
    assert est.tm == pytest.approx(0.8)       # Tm = EmR - Em
    assert est.gm == pytest.approx(1.0)       # Gm = Em(i+1) - Em(i)
    assert est.ep == pytest.approx(-4.8)      # Ep = Em(i+1) - Tm
    assert est.gp == pytest.approx(0.2)       # Gp = Ep - Em(i)


def test_gradient_agreement():
    agree = TransientEstimate(0.0, 0.0, 1.0)
    assert agree.gradients_agree
    # positive Gm but transient-dominated: Gp negative
    flip = TransientEstimate(0.0, 2.0, 1.0)
    assert flip.gm > 0 and flip.gp < 0
    assert not flip.gradients_agree
    # zero gradient counts as agreement
    flat = TransientEstimate(0.0, 0.5, 0.0)
    assert flat.gradients_agree is (flat.gm * flat.gp >= 0)


def test_fig9_scenarios():
    """The six controller scenarios of the paper's Fig. 9."""
    policy = GradientFaithfulPolicy()
    tau = 0.1
    # (a)/(b): both gradients positive -> accept
    assert policy.accepts(TransientEstimate(0.0, 0.2, 1.0), tau)
    # (d)/(e): both negative -> accept
    assert policy.accepts(TransientEstimate(0.0, -0.2, -1.0), tau)
    # (c): machine positive, predicted negative, beyond threshold -> reject
    assert not policy.accepts(TransientEstimate(0.0, 1.5, 1.0), tau)
    # (f): machine negative, predicted positive -> reject
    assert not policy.accepts(TransientEstimate(0.0, -1.5, -1.0), tau)
    # threshold region: small swings always accepted even if signs differ
    small = TransientEstimate(0.0, 0.08, 0.05)
    assert small.gm > 0 and small.gp < 0
    assert policy.accepts(small, tau)
    # the threshold region is inclusive: opposite signs at |Gm| = |Gp| = tau
    edge = TransientEstimate(0.0, 0.5, 0.25)
    assert edge.gm == 0.25 and edge.gp == -0.25
    assert policy.accepts(edge, 0.25)


def test_fig9_invariance_to_energy_offset():
    policy = GradientFaithfulPolicy()
    base = TransientEstimate(0.0, 1.5, 1.0)
    shifted = TransientEstimate(-7.0, -5.5, -6.0)
    assert policy.accepts(base, 0.1) == policy.accepts(shifted, 0.1)


def test_always_accept():
    policy = AlwaysAcceptPolicy()
    assert policy.accepts(TransientEstimate(0.0, 99.0, -99.0), 0.0)


def test_only_transients_threshold():
    policy = OnlyTransientsPolicy()
    small = TransientEstimate(0.0, 0.05, -1.0)
    big = TransientEstimate(0.0, 0.5, -1.0)
    assert policy.accepts(small, tau=0.1)
    assert not policy.accepts(big, tau=0.1)


def test_only_transients_ignores_direction():
    # constructive transient (helps the objective) still rejected on size —
    # the flaw the paper highlights in Section 5.3.
    policy = OnlyTransientsPolicy()
    constructive = TransientEstimate(0.0, -0.5, -0.6)
    assert not policy.accepts(constructive, tau=0.1)


def test_cfar_flags_outlier_after_warmup():
    policy = CFARPolicy(window=8, alarm_factor=3.0)
    quiet = TransientEstimate(0.0, 0.05, 0.0)
    for _ in range(8):
        assert policy.accepts(quiet, tau=0.0)
    outlier = TransientEstimate(0.0, 5.0, 0.0)
    assert not policy.accepts(outlier, tau=0.0)


def test_cfar_validation():
    with pytest.raises(ValueError):
        CFARPolicy(window=1)
    with pytest.raises(ValueError):
        CFARPolicy(alarm_factor=1.0)
