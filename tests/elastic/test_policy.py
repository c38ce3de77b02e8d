"""EWMA + hysteresis policy unit tests (pure state machine)."""

import pytest

from repro.elastic.policy import COOLDOWN_UP, HysteresisPolicy, PolicyConfig
from repro.sim.metrics import Ewma

pytestmark = pytest.mark.elastic


def test_ewma_seeds_and_smooths():
    ewma = Ewma(alpha=0.5)
    assert ewma.update(1.0) == 1.0
    assert ewma.update(0.0) == 0.5
    assert ewma.update(0.0) == 0.25


def test_ewma_rejects_bad_alpha():
    with pytest.raises(ValueError):
        Ewma(alpha=0.0)
    with pytest.raises(ValueError):
        Ewma(alpha=1.5)


def _policy(**overrides):
    defaults = dict(breach_down=3, cooldown_down=0.5, min_nodes=1, max_nodes=8)
    defaults.update(overrides)
    return HysteresisPolicy(PolicyConfig(**defaults))


def test_single_spike_does_not_scale():
    policy = _policy()
    assert policy.observe(0.0, 0.95, 2) == 0  # first breach: wait
    assert policy.observe(0.1, 0.50, 2) == 0  # back in band: reset
    assert policy.observe(0.2, 0.95, 2) == 0  # streak restarted
    assert policy.observe(0.3, 0.95, 2) > 0   # second consecutive breach


def test_proportional_scale_up_sizes_the_jump():
    policy = _policy()
    policy.observe(0.0, 1.5, 2)
    delta = policy.observe(0.1, 1.5, 2)
    # target = (0.75+0.30)/2 = 0.525 -> desired = ceil(2*1.5/0.525) = 6
    assert delta == 4


def test_scale_up_respects_max_nodes():
    policy = _policy(max_nodes=3)
    policy.observe(0.0, 2.0, 3)
    assert policy.observe(0.1, 2.0, 3) == 0


def test_scale_in_steps_down_one_after_streak():
    policy = _policy()
    assert policy.observe(0.0, 0.1, 4) == 0
    assert policy.observe(0.1, 0.1, 4) == 0
    assert policy.observe(0.2, 0.1, 4) == -1


def test_scale_in_respects_min_nodes():
    policy = _policy(min_nodes=2)
    for i in range(10):
        assert policy.observe(i * 0.1, 0.0, 2) == 0


def test_cooldown_blocks_consecutive_changes():
    policy = _policy()
    for i in range(3):
        policy.observe(i * 0.1, 0.1, 4)
    assert policy.observe(0.3, 0.1, 4) == -1
    policy.record_change(0.3)
    # The (longer) scale-in cooldown blocks further shrinking even though
    # the breach streak rebuilds immediately.
    for i in range(4, 8):
        assert policy.observe(i * 0.1, 0.1, 3) == 0
    # 0.5s after the change the cooldown expires and the streak stands.
    assert policy.observe(0.8, 0.1, 3) == -1


def test_asymmetric_cooldowns():
    policy = _policy()
    policy.record_change(0.0)
    # Scale-out needs only COOLDOWN_UP after a change, well before the
    # scale-in cooldown ends.
    assert COOLDOWN_UP < policy.config.cooldown_down
    policy.observe(COOLDOWN_UP - 0.1, 2.0, 2)
    assert policy.observe(COOLDOWN_UP, 2.0, 2) > 0


def test_fleet_bounds_validation():
    with pytest.raises(ValueError):
        PolicyConfig(min_nodes=0)
    with pytest.raises(ValueError):
        PolicyConfig(min_nodes=4, max_nodes=2)
