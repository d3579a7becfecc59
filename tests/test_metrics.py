import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sensorq import metrics
from sensorq.metrics import EpisodeLog, MetricsRow, aggregate

from oracles import naive_detection, naive_quality, naive_redundancy, stacked_log, zoh_series


def make_log(truth, samples, energy=None, events=(), value_range=(0.0, 1.0)):
    """A one-sensor EpisodeLog."""
    return stacked_log([truth], [samples], None if energy is None else [energy], [events],
                       [value_range])


def random_case(rng, max_T=30):
    """(log, truth, samples, events, span) of a random one-sensor episode."""
    T = int(rng.integers(2, max_T))
    truth = rng.normal(0.0, 1.0, size=T).cumsum()
    n = int(rng.integers(0, T + 1))
    epochs = sorted(rng.choice(T, size=n, replace=False).tolist())
    samples = [(int(e), float(truth[e] + rng.normal(0, 0.1))) for e in epochs]
    n_ev = int(rng.integers(0, 4))
    events = sorted(rng.choice(T, size=min(n_ev, T), replace=False).tolist())
    energy = rng.uniform(0.0, 2.0, size=T)
    lo, hi = float(truth.min()), float(truth.max())
    log = make_log(truth, samples, energy, events, (lo, hi))
    return log, truth, samples, events, float(log.spans[0])


class TestDataQuality:
    def test_sampling_every_epoch_is_perfect(self):
        truth = np.array([1.0, 3.0, 2.0, 5.0])
        log = make_log(truth, [(e, float(v)) for e, v in enumerate(truth)], value_range=(1.0, 5.0))
        assert metrics.data_quality(log) == 1.0

    def test_constant_signal_single_sample(self):
        log = make_log(np.full(6, 2.5), [(2, 2.5)], value_range=(0.0, 5.0))
        assert metrics.data_quality(log) == 1.0

    def test_hand_case_alternating_signal(self):
        # truth (0,1,0,1), samples at 0 and 1 -> hold (0,1,1,1), RMSE=0.5
        log = make_log([0.0, 1.0, 0.0, 1.0], [(0, 0.0), (1, 1.0)], value_range=(0.0, 1.0))
        assert abs(metrics.data_quality(log) - 0.5) < 1e-12

    def test_no_samples_scores_zero(self):
        log = make_log([0.0, 1.0], [])
        assert metrics.data_quality(log) == 0.0

    def test_adding_a_sample_zeroes_error_at_that_epoch(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            _, truth, samples, _, _ = random_case(rng)
            free = [e for e in range(len(truth)) if e not in {ep for ep, _ in samples}]
            if not free:
                continue
            e_new = int(rng.choice(free))
            log = make_log(truth, sorted(samples + [(e_new, float(truth[e_new]))]))
            recon = metrics.zoh_hold(log.kept, log.values)[0]
            assert recon[e_new] == truth[e_new]

    def test_matches_brute_force_on_random_logs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            log, truth, samples, _, span = random_case(rng)
            expected = naive_quality(truth.tolist(), samples, span)
            assert abs(metrics.data_quality(log) - expected) < 1e-9


class TestEnergy:
    def test_all_skip_episode(self):
        idle = 0.05
        log = make_log(np.zeros(10), [], energy=np.full(10, idle))
        assert abs(metrics.energy_total(log) - 10 * idle) < 1e-12

    def test_sample_every_epoch(self):
        log = make_log(np.zeros(8), [], energy=np.full(8, 1.2))
        assert abs(metrics.energy_total(log) - 9.6) < 1e-12

    def test_hand_summed_mixed_ledger(self):
        ledger = np.array([1.0, 0.05, 0.05, 1.0, 0.05])
        log = make_log(np.zeros(5), [], energy=ledger)
        assert abs(metrics.energy_total(log) - 2.15) < 1e-12

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 2, size=6)
        b = rng.uniform(0, 2, size=4)
        whole = make_log(np.zeros(10), [], energy=np.concatenate([a, b]))
        half_a = make_log(np.zeros(6), [], energy=a)
        half_b = make_log(np.zeros(4), [], energy=b)
        assert abs(
            metrics.energy_total(whole)
            - (metrics.energy_total(half_a) + metrics.energy_total(half_b))
        ) < 1e-12


class TestRedundancy:
    def test_single_sample_is_zero(self):
        log = make_log(np.zeros(5), [(2, 0.0)])
        assert metrics.redundancy_rate(log, 0.05) == 0.0

    def test_constant_signal_ten_samples(self):
        log = make_log(np.zeros(10), [(e, 1.0) for e in range(10)], value_range=(0.0, 2.0))
        assert abs(metrics.redundancy_rate(log, 0.05) - 90.0) < 1e-12

    def test_large_steps_never_redundant(self):
        log = make_log(np.zeros(4), [(0, 0.0), (1, 1.0), (2, 0.0), (3, 1.0)], value_range=(0.0, 1.0))
        assert metrics.redundancy_rate(log, 0.05) == 0.0

    def test_matches_brute_force_on_random_logs(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            log, _, samples, _, span = random_case(rng)
            expected = naive_redundancy(samples, 0.05, span)
            assert metrics.redundancy_rate(log, 0.05) == pytest.approx(expected, abs=1e-12)


class TestDetection:
    def test_sampling_every_epoch_catches_all(self):
        log = make_log(np.zeros(10), [(e, 0.0) for e in range(10)], events=[2, 7])
        assert metrics.event_detection_rate(log, 2) == 100.0

    def test_no_samples_with_events(self):
        log = make_log(np.zeros(10), [], events=[4])
        assert metrics.event_detection_rate(log, 2) == 0.0

    def test_hand_window_case(self):
        log = make_log(np.zeros(12), [(4, 0.0)], events=[3, 9])
        assert metrics.event_detection_rate(log, 2) == 50.0

    def test_no_events_scores_hundred(self):
        log = make_log(np.zeros(5), [])
        assert metrics.event_detection_rate(log, 2) == 100.0

    def test_matches_brute_force_on_random_logs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            log, _, samples, events, _ = random_case(rng)
            expected = naive_detection(events, samples, 2)
            assert metrics.event_detection_rate(log, 2) == pytest.approx(expected, abs=1e-12)


class TestAggregate:
    def test_single_report(self):
        row = MetricsRow("fixed", 0.8, 100.0, 20.0, 90.0)
        rep = aggregate([row], seeds=[1])
        assert rep.quality == 0.8 and rep.quality_std == 0.0
        assert rep.seeds == [1]

    def test_two_reports_hand_arithmetic(self):
        rows = [MetricsRow("dqn", 0.8, 1.0, 0.0, 0.0), MetricsRow("dqn", 0.6, 3.0, 0.0, 0.0)]
        rep = aggregate(rows)
        assert abs(rep.quality - 0.7) < 1e-12
        assert abs(rep.quality_std - 0.1414213562373095) < 1e-12
        assert abs(rep.energy_mj - 2.0) < 1e-12

    def test_order_invariance(self):
        rows = [MetricsRow("r", q, q, q, q) for q in (0.1, 0.5, 0.9)]
        a = aggregate(rows)
        b = aggregate(rows[::-1])
        assert a == b

    def test_mixed_labels_rejected(self):
        with pytest.raises(ValueError):
            aggregate([MetricsRow("a", 0, 0, 0, 0), MetricsRow("b", 0, 0, 0, 0)])


class TestLogValidation:
    def test_ledger_length_mismatch_rejected(self):
        good = np.zeros((2, 4))
        for bad in (np.zeros((2, 3)), np.zeros((1, 4)), np.zeros(4)):
            with pytest.raises(ValueError):
                EpisodeLog(good, bad, good.astype(bool), good, [[], []], np.ones(2))
            with pytest.raises(ValueError):
                EpisodeLog(good, good, bad.astype(bool), good, [[], []], np.ones(2))

    def test_metric_ranges_on_random_logs(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            log = random_case(rng)[0]
            assert 0.0 <= metrics.data_quality(log) <= 1.0
            assert metrics.energy_total(log) >= 0.0
            assert 0.0 <= metrics.redundancy_rate(log, 0.05) <= 100.0
            assert 0.0 <= metrics.event_detection_rate(log, 2) <= 100.0


DELTA_RED = 0.05


@st.composite
def oracle_cases(draw):
    """(truth, samples, energy, events, ranges, window) of 1-4 sensors
    sharing one T. Each sensor may keep nothing, list no events (or one
    event twice) and have a degenerate range. Kept values mix free floats
    with multiples of the redundancy threshold, so that steps of exactly
    delta_red * span occur."""
    T = draw(st.integers(1, 40))
    truth, samples, energy, events, ranges = [], [], [], [], []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.sampled_from([0.0, -3.0, 10.0]))
        hi = lo + draw(st.sampled_from([0.0, 0.5, 1.0, 7.0]))  # 0: the degenerate-range guard
        step = DELTA_RED * ((hi - lo) if hi > lo else 1.0)
        value = st.one_of(st.sampled_from([0.0, step, 2 * step, -step]), st.floats(-20.0, 20.0))
        epochs = sorted(draw(st.sets(st.integers(0, T - 1), max_size=T)))
        samples.append([(e, draw(value)) for e in epochs])
        truth.append(draw(st.lists(st.floats(-20.0, 20.0), min_size=T, max_size=T)))
        energy.append(draw(st.lists(st.floats(0.0, 5.0), min_size=T, max_size=T)))
        events.append(draw(st.lists(st.integers(0, T - 1), max_size=4)))
        ranges.append((lo, hi))
    return truth, samples, energy, events, ranges, draw(st.integers(0, 4))


@given(oracle_cases())
# no samples; an event at T-1
@example(([[1.0, 2.0, 3.0]], [[]], [[0.0] * 3], [[2]], [(0.0, 1.0)], 0))
# one sample after epoch 0, next to a sensor with no events and a degenerate range
@example(([[0.0, 5.0, 1.0, 2.0], [1.0, 1.0, 2.0, 0.0]], [[(2, 1.0)], [(0, 1.0), (3, 1.04)]],
          [[1.0, 0.5, 0.5, 0.5], [0.0] * 4], [[0, 3], []], [(0.0, 5.0), (2.0, 2.0)], 0))
# steps of exactly 0.05; a duplicated event; a sensor that keeps nothing
@example(([[0.0] * 5, [3.0] * 5], [[(0, 0.0), (1, 0.05), (3, 0.1), (4, 0.1)], []],
          [[0.1] * 5, [0.2] * 5], [[4, 4], [1]], [(0.0, 1.0), (0.0, 1.0)], 0))
def test_array_metrics_match_the_loop_oracles(case):
    """Zero-order hold, redundancy and detection equal the loop oracles
    exactly, and energy the mean of 1-d row sums; quality agrees within
    1e-9, since the oracle sums one term at a time."""
    truth, samples, energy, events, ranges, window = case
    log = stacked_log(truth, samples, energy, events, ranges)
    held = metrics.zoh_hold(log.kept, log.values)
    spans = [hi - lo for lo, hi in ranges]  # the oracles apply the degenerate-range guard
    for row, pairs in zip(held.tolist(), samples):
        if pairs:
            assert row == zoh_series(len(row), pairs)
    assert metrics.redundancy_rate(log, DELTA_RED) == np.mean(
        [naive_redundancy(s, DELTA_RED, span) for s, span in zip(samples, spans)])
    assert metrics.event_detection_rate(log, window) == np.mean(
        [naive_detection(ev, s, window) for ev, s in zip(events, samples)])
    assert metrics.energy_total(log) == np.mean([np.array(row).sum() for row in energy])
    want_q = np.mean([naive_quality(t, s, span) for t, s, span in zip(truth, samples, spans)])
    assert abs(metrics.data_quality(log) - want_q) < 1e-9


@given(oracle_cases(), st.sampled_from(["T", 2**63 - 1, 2**63, 10**30]))
def test_window_past_the_episode_matches_the_loop_oracle(case, window):
    """A window of T or more covers the rest of the episode: past int64 it
    neither wraps to a negative index nor overflows."""
    truth, samples, energy, events, ranges, _ = case
    log = stacked_log(truth, samples, energy, events, ranges)
    window = len(truth[0]) if window == "T" else window
    assert metrics.event_detection_rate(log, window) == np.mean(
        [naive_detection(ev, s, window) for ev, s in zip(events, samples)])
