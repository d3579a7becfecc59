import numpy as np
import pytest

from oracles import rolling_std, rolling_std_events
from sensorq import signals
from sensorq.signals import SignalParams, detect_events, inject_interference, synth_track


RANGE = (10.0, 40.0)


class TestSynthTrack:
    def test_deterministic_per_kind_and_seed(self):
        a = synth_track("temperature", 100, 7, SignalParams(), RANGE)
        b = synth_track("temperature", 100, 7, SignalParams(), RANGE)
        assert np.array_equal(a.values, b.values)
        assert a.events == b.events

    def test_kinds_and_seeds_decorrelate(self):
        a = synth_track("temperature", 50, 7, SignalParams(), RANGE)
        b = synth_track("humidity", 50, 7, SignalParams(), RANGE)
        c = synth_track("temperature", 50, 8, SignalParams(), RANGE)
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_degenerate_config_is_pure_sinusoid(self):
        params = SignalParams(period=20, sin_amp=0.3, walk_sigma=0.0, event_amp=0.0, n_events=0)
        track = synth_track("light", 80, 3, params, (0.0, 100.0))
        assert track.events == []
        v = track.values
        np.testing.assert_allclose(v[:60], v[20:], rtol=0, atol=1e-9)
        mid = 50.0
        assert abs(v.mean() - mid) < 2.0
        assert abs(v.max() - (mid + 30.0)) < 1.0

    def test_event_schedule_matches_documented_recipe(self):
        # Independent regeneration of steps 1-4 from the module docstring.
        params = SignalParams()
        track = synth_track("voltage", 120, 99, params, (2.0, 3.0))
        rng = np.random.default_rng(np.random.SeedSequence([99, signals.KIND_INDEX["voltage"]]))
        rng.uniform(0.0, params.period)
        rng.normal(0.0, params.walk_sigma * 1.0, size=120)
        expected = np.sort(
            rng.choice(np.arange(params.min_event_epoch, 120), size=params.n_events, replace=False)
        )
        assert track.events == [int(e) for e in expected]

    def test_events_are_persistent_steps(self):
        params = SignalParams(sin_amp=0.0, walk_sigma=0.0, event_amp=0.5, n_events=1)
        track = synth_track("temperature", 60, 5, params, RANGE)
        (e,) = track.events
        span = RANGE[1] - RANGE[0]
        jump = track.values[e] - track.values[e - 1]
        assert abs(abs(jump) - 0.5 * span) < 1e-12
        np.testing.assert_allclose(np.diff(track.values[e:]), 0.0, atol=1e-12)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            synth_track("pressure", 10, 0, SignalParams(), RANGE)


class TestInterference:
    def test_eta_zero_is_identity(self):
        rng = np.random.default_rng(0)
        for v in (-3.0, 0.0, 17.5):
            out, kept = inject_interference(v, 0.0, rng, 0.2, 30.0, 0.1)
            assert out == v and kept

    def test_noise_std_matches_definition(self):
        rng = np.random.default_rng(123)
        span, beta = 30.0, 0.2
        draws = np.array(
            [inject_interference(0.0, 1.0, rng, beta, span, 0.0)[0] for _ in range(100_000)]
        )
        assert abs(draws.std() - beta * span) / (beta * span) < 0.03

    def test_drop_rate_matches_definition(self):
        rng = np.random.default_rng(321)
        dropped = sum(
            not inject_interference(0.0, 1.0, rng, 0.2, 30.0, 0.1)[1] for _ in range(100_000)
        )
        assert abs(dropped / 100_000 - 0.10) < 0.01

    def test_eta_scales_both_effects(self):
        rng = np.random.default_rng(5)
        draws = np.array(
            [inject_interference(0.0, 0.5, rng, 0.2, 30.0, 0.1)[0] for _ in range(50_000)]
        )
        assert abs(draws.std() - 0.5 * 0.2 * 30.0) / (0.5 * 0.2 * 30.0) < 0.05

    def test_invalid_eta_rejected(self):
        with pytest.raises(ValueError):
            inject_interference(0.0, 1.5, np.random.default_rng(0), 0.2, 1.0, 0.1)


class TestDetectEvents:
    def test_flat_noise_with_jump(self):
        rng = np.random.default_rng(77)
        series = rng.normal(0.0, 0.05, size=100)
        series[60:] += 5.0
        assert detect_events(series, window=20, k=4.0) == [60]

    def test_no_events_in_smooth_series(self):
        t = np.arange(200)
        series = np.sin(2 * np.pi * t / 50.0)
        assert detect_events(series, window=20, k=3.0) == []

    def test_hand_case(self):
        # deltas: 19 alternating +-1 then a +10 jump at epoch 21
        series = np.zeros(22)
        series[1::2] = 1.0
        series[21] = series[20] + 10.0
        events = detect_events(series, window=20, k=3.0)
        assert events == [21]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_window_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n = int(rng.integers(0, 120))
            window = int(rng.integers(2, 40))  # often longer than the series
            k = float(rng.uniform(0.5, 5.0))
            shape = seed % 3
            if shape == 0:
                series = np.cumsum(rng.normal(size=n))
            elif shape == 1:  # few distinct deltas: many zero and tied windows
                series = np.round(rng.normal(size=n) * 2.0) / 7.0
            else:
                series = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
            series[rng.random(n) < 0.05] += 8.0
            assert detect_events(series, window, k) == rolling_std_events(series, window, k)

    def test_rolling_std_is_bit_equal(self):
        # k at the exact ratio |delta| / sigma of each window puts every
        # comparison on the last bit of the oracle's sigma
        rng = np.random.default_rng(11)
        series = np.cumsum(rng.normal(size=150))
        diffs = np.diff(series)
        for window in (2, 5, 20):
            for t, sigma in zip(range(window, len(diffs)), rolling_std(series, window)):
                k = abs(diffs[t]) / sigma
                assert detect_events(series, window, k) == rolling_std_events(series, window, k)

    def test_series_shorter_than_window(self):
        for n in range(0, 23):
            series = np.arange(n, dtype=float) ** 2
            assert detect_events(series, window=20) == rolling_std_events(series, 20, 3.0)
        assert detect_events(np.arange(21.0) ** 2, window=20) == []

    def test_constant_series_has_no_events(self):
        series = np.full(50, 3.5)
        assert detect_events(series, window=5) == [] == rolling_std_events(series, 5, 3.0)

    def test_returns_python_ints(self):
        series = np.zeros(40)
        series[30:] = 100.0
        series[::2] += 0.01
        events = detect_events(series, window=10)
        assert events == rolling_std_events(series, 10, 3.0) and events
        assert all(type(e) is int for e in events)
