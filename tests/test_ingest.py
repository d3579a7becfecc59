import os
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sensorq
from oracles import key_tuple_trace, strptime_timestamp
from sensorq import ingest
from sensorq.errors import ConfigError
from sensorq.ingest import (
    MoteSeries,
    ParseSkip,
    SensorReading,
    hold_fill,
    load_trace,
    parse_line,
)

GOOD = "2004-03-01 00:58:46.002832 2 1 19.98 37.09 45.08 2.69"


@pytest.fixture
def local_tz(monkeypatch):
    """Switch the process timezone; the original comes back at teardown."""

    def use(name):
        monkeypatch.setenv("TZ", name)
        time.tzset()

    yield use
    monkeypatch.undo()
    time.tzset()


def write_trace(tmp_path, lines, name="trace.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseLine:
    def test_well_formed_line_maps_positionally(self):
        r = parse_line(GOOD)
        assert isinstance(r, SensorReading)
        assert (r.epoch, r.mote) == (2, 1)
        assert (r.temperature, r.humidity, r.light, r.voltage) == (19.98, 37.09, 45.08, 2.69)
        assert r == (r.timestamp, 2, 1, 19.98, 37.09, 45.08, 2.69)  # load_trace's column order

    @pytest.mark.parametrize(
        "epoch, mote, kept",
        [
            (2**63 - 1, 2**63 - 1, True),
            (2**63, 1, False),
            (2, 2**63, False),
            (2, 10**30, False),
            (-(2**63) - 1, 1, False),  # out of int64 before it is out of range
            (-(2**63), 1, None),  # in int64, then a negative epoch
        ],
    )
    def test_epoch_and_mote_must_fit_int64(self, epoch, mote, kept):
        r = parse_line(f"2004-03-01 00:58:46.0 {epoch} {mote} 19.9 37.0 45.0 2.69")
        if kept:
            assert isinstance(r, SensorReading) and (r.epoch, r.mote) == (epoch, mote)
        else:
            assert isinstance(r, ParseSkip)
            assert r.reason == (ingest.R_NUMBER if kept is False else ingest.R_RANGE)

    def test_empty_line_skips_on_field_count(self):
        r = parse_line("")
        assert isinstance(r, ParseSkip) and r.reason == ingest.R_FIELDS

    def test_nan_channel_skips_on_number(self):
        r = parse_line("2004-03-01 00:58:46.0 2 1 NaN 37.0 45.0 2.69")
        assert isinstance(r, ParseSkip) and r.reason == ingest.R_NUMBER

    def test_garbage_number_skips(self):
        r = parse_line("2004-03-01 00:58:46.0 2 1 x 37.0 45.0 2.69")
        assert isinstance(r, ParseSkip) and r.reason == ingest.R_NUMBER

    def test_bad_mote_id_skips(self):
        r = parse_line("2004-03-01 00:58:46.0 2 0 19.9 37.0 45.0 2.69")
        assert isinstance(r, ParseSkip) and r.reason == ingest.R_RANGE

    def test_timestamp_without_fraction(self):
        r = parse_line("2004-03-01 10:00:00 5 3 20.0 40.0 100.0 2.7")
        assert isinstance(r, SensorReading)
        assert r.timestamp == 1078135200.0  # 2004-03-01T10:00:00Z

    def test_timestamp_with_fraction_is_utc(self, local_tz):
        local_tz("America/New_York")
        assert parse_line(GOOD).timestamp == 1078102726 + 0.002832

    def test_bad_clock_skips_on_number(self):
        r = parse_line("2004-03-01 25:61:00.0 2 1 19.9 37.0 45.0 2.69")
        assert isinstance(r, ParseSkip) and r.reason == ingest.R_NUMBER

    @pytest.mark.parametrize(
        "date, time",
        [
            ("2004-3-1", "1:2:3"),  # 1-digit fields
            ("2004-03-01", "12:00:60"),  # strptime's pattern allows 60, datetime does not
            ("2004-03-01", "12:00:61.5"),
            ("2004-02-30", "12:00:00"),
            ("2004-02-29", "23:59:59.999999"),
            ("2003-02-29", "00:00:00"),
            ("0000-01-01", "00:00:00"),
            ("2004-03-01", "00:00:00.1234567"),  # 7-digit fraction
            ("2004-03-01", "00:00:00.5"),
            ("2004-03-01", "00:00:00."),  # trailing dot
            ("2004-03-01", "25:61:00.000000"),
            ("2004-03-01", "24:00:00"),
            ("2004-13-01", "00:00:00"),
            ("04-03-01", "00:00:00"),
            ("2004-03-01T00", "00:00:00"),
            ("\uff12\uff10\uff10\uff14-03-01", "10:00:0\uff15"),  # full-width digits
            ("2004-\uff10\uff13-01", "10:00:00"),  # ...not where the pattern says [0-9]
            ("2004-03-01", "10:00:00.\uff15"),
        ],
    )
    def test_timestamp_edges_match_strptime(self, date, time):
        r = parse_line(f"{date} {time} 2 1 19.9 37.0 45.0 2.69")
        expected = strptime_timestamp(date, time)
        if expected is None:
            assert isinstance(r, ParseSkip) and r.reason == ingest.R_NUMBER
        else:
            assert isinstance(r, SensorReading) and r.timestamp == expected

    @given(
        date=st.one_of(
            st.from_regex(r"[0-9]{1,5}-[0-9]{1,3}-[0-9]{1,3}", fullmatch=True),
            st.from_regex(r"\d{4}-\d{1,2}-\d{1,2}", fullmatch=True),
            st.text(min_size=1),
        ),
        time=st.one_of(
            st.from_regex(r"[0-9]{1,3}:[0-9]{1,3}:[0-9]{1,3}(\.[0-9]{0,8})?", fullmatch=True),
            st.from_regex(r"\d{1,2}:\d{1,2}:\d{1,2}(\.\d{1,6})?", fullmatch=True),
            st.text(min_size=1),
        ),
    )
    def test_timestamp_matches_strptime_or_both_skip(self, date, time):
        r = parse_line(f"{date} {time} 2 1 19.9 37.0 45.0 2.69")
        if [date, time] != f"{date} {time}".split():  # whitespace changes the field count
            assert isinstance(r, ParseSkip)
            return
        expected = strptime_timestamp(date, time)
        if expected is None:
            assert isinstance(r, ParseSkip) and r.reason == ingest.R_NUMBER
        else:
            assert isinstance(r, SensorReading) and r.timestamp == expected

    @given(st.text())
    def test_never_raises(self, line):
        assert isinstance(parse_line(line), (SensorReading, ParseSkip))


class TestLoadTrace:
    def test_clean_file_keeps_everything(self, tmp_path):
        lines = [
            f"2004-03-01 00:0{i}:00.0 {i} 1 2{i}.0 40.0 100.0 2.7" for i in range(5)
        ]
        series, report = load_trace(write_trace(tmp_path, lines))
        assert report.total == 5 and report.kept == 5 and report.total_skipped == 0
        assert 1 in series

    def test_out_of_window_temperature_skipped(self, tmp_path):
        lines = [
            "2004-03-01 00:00:00.0 0 1 20.0 40.0 100.0 2.7",
            "2004-03-01 00:01:00.0 1 1 200.0 40.0 100.0 2.7",
        ]
        series, report = load_trace(write_trace(tmp_path, lines))
        assert report.kept == 1
        assert report.skipped == {ingest.R_RANGE: 1}

    def test_kept_plus_skipped_equals_total(self, tmp_path):
        lines = [
            GOOD,
            "",
            "not a reading at all",
            "2004-03-01 00:59:00.0 3 1 19.9 37.0 45.0 9.9",  # voltage window
            "2004-03-01 01:00:00.0 4 2 19.9 37.0 45.0 2.7",
        ]
        _, report = load_trace(write_trace(tmp_path, lines))
        assert report.total == 5
        assert report.kept + report.total_skipped == report.total

    def test_slot_assignment_matches_hand_computation(self, tmp_path):
        # t0 = 00:00:05; offsets 0, 59, 61, 121 s -> slots 0, 0, 1, 2
        lines = [
            "2004-03-01 00:00:05.0 0 1 20.0 40.0 100.0 2.7",
            "2004-03-01 00:01:04.0 1 1 21.0 40.0 100.0 2.7",
            "2004-03-01 00:01:06.0 2 1 22.0 40.0 100.0 2.7",
            "2004-03-01 00:02:06.0 3 1 23.0 40.0 100.0 2.7",
        ]
        series, _ = load_trace(write_trace(tmp_path, lines), delta_t=60.0)
        ms = series[1]
        assert len(ms.present) == 3
        assert ms.present.all()
        # slot 0 conflict keeps the later reading (21.0)
        np.testing.assert_array_equal(ms.values["temperature"], [21.0, 22.0, 23.0])

    def test_shuffled_lines_yield_same_series(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = [
            f"2004-03-01 00:{i:02d}:00.0 {i} {1 + i % 2} {20 + i}.0 40.0 100.0 2.7"
            for i in range(10)
        ]
        series_a, report_a = load_trace(write_trace(tmp_path, lines, "a.txt"))
        shuffled = list(lines)
        rng.shuffle(shuffled)
        series_b, report_b = load_trace(write_trace(tmp_path, shuffled, "b.txt"))
        assert report_a.kept == report_b.kept
        for mote in series_a:
            np.testing.assert_array_equal(
                series_a[mote].values["temperature"], series_b[mote].values["temperature"]
            )
            np.testing.assert_array_equal(series_a[mote].present, series_b[mote].present)

    def test_stats_bound_kept_values(self, tmp_path):
        lines = [
            f"2004-03-01 00:0{i}:00.0 {i} 1 {18 + 2 * i}.0 {30 + i}.0 {90 + i}.0 2.7"
            for i in range(4)
        ]
        series, _ = load_trace(write_trace(tmp_path, lines))
        ms = series[1]
        for ch in ingest.CHANNELS:
            lo, hi = ms.stats[ch]
            kept = ms.values[ch][ms.present]
            assert lo <= kept.min() and kept.max() <= hi

    @pytest.mark.parametrize("tz", ["UTC", "Europe/Berlin"])
    def test_slots_ignore_local_daylight_saving(self, tmp_path, local_tz, tz):
        # Berlin skipped 02:00-03:00 local that night; as UTC the readings are 2 h apart
        lines = [
            "2004-03-28 01:30:00 0 1 20.0 40.0 100.0 2.7",
            "2004-03-28 03:30:00 1 1 21.0 40.0 100.0 2.7",
        ]
        local_tz(tz)
        series, _ = load_trace(write_trace(tmp_path, lines), delta_t=3600.0)
        np.testing.assert_array_equal(series[1].present, [True, False, True])

    def test_empty_file_is_config_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ConfigError):
            load_trace(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(tmp_path / "nope.txt")

    def test_undecodable_byte_skips_its_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(
            b"2004-03-01 00:00:00.0 0 1 20.0 40.0 100.0 2.7\n"
            b"2004-03-01 00:01:00.0 1 1 2\xff.0 40.0 100.0 2.7\n"
        )
        _, report = load_trace(path)
        assert report.total == 2 and report.kept == 1
        assert report.skipped == {ingest.R_NUMBER: 1}

    def test_huge_mote_skips_instead_of_merging(self, tmp_path):
        # as floats, 2**64 + 1 and 2**64 would share one mote
        lines = [
            "2004-03-01 00:00:00.0 0 1 20.0 40.0 100.0 2.7",
            f"2004-03-01 00:00:00.0 0 {2**64 + 1} 21.0 40.0 100.0 2.7",
            f"2004-03-01 00:00:00.0 0 {2**64} 22.0 40.0 100.0 2.7",
            f"2004-03-01 00:01:00.0 1 {2**63 - 1} 23.0 40.0 100.0 2.7",
        ]
        series, report = load_trace(write_trace(tmp_path, lines))
        assert report.skipped == {ingest.R_NUMBER: 2} and report.kept == 2
        assert list(series) == [1, 2**63 - 1]
        assert all(type(m) is int for m in series)
        np.testing.assert_array_equal(series[2**63 - 1].values["temperature"], [np.nan, 23.0])

    @pytest.mark.parametrize("delta_t", [0.0, -60.0, float("nan"), float("inf")])
    def test_bad_delta_t_is_config_error(self, tmp_path, delta_t):
        with pytest.raises(ConfigError, match="delta_t"):
            load_trace(write_trace(tmp_path, [GOOD]), delta_t=delta_t)

    @pytest.mark.parametrize("cap, ok", [(6, True), (5, False)])
    def test_grid_cells_are_capped(self, tmp_path, monkeypatch, cap, ok):
        """3 slots x 2 motes = 6 cells, checked before the grid exists."""
        monkeypatch.setattr(ingest, "MAX_GRID_CELLS", cap)
        path = write_trace(tmp_path, ["2004-03-01 00:00:00 0 1 20.0 40.0 100.0 2.7",
                                      "2004-03-01 00:02:59 1 2 20.0 40.0 100.0 2.7"])
        if ok:
            assert len(load_trace(path, delta_t=60.0)[0][1].present) == 3
        else:
            with pytest.raises(ConfigError, match=r"needs 3 slots x 2 motes > 5 cells"):
                load_trace(path, delta_t=60.0)


# few stamps, epochs and values, so slot conflicts and exact ties are common
_LIGHT = st.sampled_from(["0", "-0", "0.0", "-0.0", "100", "1e2"])
_LINE = st.builds(
    "2004-03-01 {} {} {} {} {} {} {}".format,
    st.sampled_from(["00:00:00", "00:00:00.5", "00:00:30", "00:00:59.999999", "00:01:00",
                     "00:01:00.000001", "00:02:30", "00:04:00"]),
    st.integers(0, 3),
    st.integers(1, 3),
    st.sampled_from(["20", "21.5", "-0", "0.0"]),
    st.sampled_from(["40", "40.0", "0", "-0.0"]),
    _LIGHT,
    st.sampled_from(["2.7", "2.70", "3.5"]),
)
_BAD_LINE = st.sampled_from([
    "",
    "junk",
    "2004-03-01 00:00:00 0 1 200 40 100 2.7",
    "2004-03-01 00:00:00 0 0 20 40 100 2.7",
    f"2004-03-01 00:00:00 0 {2**64} 20 40 100 2.7",
])


def assert_matches_key_tuple_oracle(path, lines, delta_t):
    series, report = load_trace(path, delta_t)
    want, total, kept, skipped = key_tuple_trace(lines, delta_t, parse_line, ingest.PLAUSIBLE)
    assert (report.total, report.kept, report.skipped) == (total, kept, skipped)
    assert list(series) == list(want)
    for mote, (values, present, stats) in want.items():
        ms = series[mote]
        assert ms.mote == mote and type(ms.mote) is int
        np.testing.assert_array_equal(ms.present, present)
        for ch in ingest.CHANNELS:  # bytes: NaN equals NaN, and 0.0 differs from -0.0
            assert ms.values[ch].tobytes() == values[ch].tobytes()
        assert np.array(list(ms.stats.values())).tobytes() == np.array(list(stats.values())).tobytes()
    return series


class TestGridMatchesKeyTupleOracle:
    def test_planted_conflicts(self, tmp_path):
        lines = [
            "2004-03-01 00:00:10 5 1 20 40 -0 2.7",
            "2004-03-01 00:00:10 5 1 20 40 0 2.7",  # equal to the line above: the first stays
            "2004-03-01 00:01:10 6 1 19 40 5 2.7",
            "2004-03-01 00:01:10 5 1 25 40 5 2.7",  # same stamp, lower epoch: loses
            "2004-03-01 00:02:10 5 1 20 40 5 2.7",
            "2004-03-01 00:02:10 5 1 21 40 5 2.7",  # same stamp and epoch, warmer: wins
            "2004-03-01 00:02:10 5 1 20 40 5 2.7",
            "2004-03-01 00:03:10.5 5 2 20 40 5 2.7",
            "2004-03-01 00:03:50 4 2 30 40 5 2.7",  # later in the slot, lower epoch: wins
        ]
        series = assert_matches_key_tuple_oracle(write_trace(tmp_path, lines), lines, 60.0)
        assert np.signbit(series[1].values["light"][0])
        np.testing.assert_array_equal(series[1].values["temperature"], [20, 19, 21, np.nan])
        np.testing.assert_array_equal(series[2].values["temperature"], [np.nan] * 3 + [30])
        swapped = [lines[1], lines[0], *lines[2:]]
        series = assert_matches_key_tuple_oracle(write_trace(tmp_path, swapped), swapped, 60.0)
        assert not np.signbit(series[1].values["light"][0])

    @given(
        good=st.lists(_LINE, min_size=1, max_size=30),
        bad=st.lists(_BAD_LINE, max_size=4),
        delta_t=st.sampled_from([0.25, 1.0, 30.0, 45.5, 60.0]),
        data=st.data(),
    )
    def test_generated_traces(self, good, bad, delta_t, data):
        duplicates = data.draw(st.lists(st.sampled_from(good), max_size=5))
        # ties on every key but light, which may differ only in its sign
        relit = [
            " ".join([*line.split()[:6], light, line.split()[7]])
            for line, light in data.draw(st.lists(st.tuples(st.sampled_from(good), _LIGHT), max_size=5))
        ]
        lines = data.draw(st.permutations(good + duplicates + relit + bad))
        with tempfile.TemporaryDirectory() as tmp:
            assert_matches_key_tuple_oracle(write_trace(Path(tmp), lines), lines, delta_t)


_RSS_PROBE = """
import resource, sys
from sensorq import ingest
ingest.load_trace(sys.argv[2])  # imports and first numpy calls before the baseline
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ingest.load_trace(sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's unit")
def test_load_trace_peak_memory_is_columnar(tmp_path):
    """100k kept lines raise peak RSS by far less than the ~700 B per line
    that one object per reading costs (about 70 MB here)."""
    start = datetime(2004, 3, 1)
    with open(tmp_path / "big.txt", "w") as fh:
        for k in range(5_000):
            for mote in range(1, 21):
                stamp = start + timedelta(seconds=31 * k, microseconds=mote)
                fh.write(f"{stamp:%Y-%m-%d %H:%M:%S.%f} {k} {mote} {20 + (k * mote) % 17 / 8:.4f} "
                         f"{40 + k % 13 / 4:.4f} {100 + mote * 7.5:.2f} {2.6 + k % 7 / 100:.3f}\n")
    write_trace(tmp_path, [GOOD], "small.txt")
    env = {**os.environ, "PYTHONPATH": str(Path(sensorq.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(tmp_path / "big.txt"), str(tmp_path / "small.txt")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    grown_mb = int(done.stdout) / 1024
    assert grown_mb < 30.0, f"peak RSS grew by {grown_mb:.1f} MB"


class TestGapFill:
    def make_series(self, values, present):
        vals = {ch: np.array(values, dtype=float) for ch in ingest.CHANNELS}
        arr = np.array(present, dtype=bool)
        if arr.any():
            stats = {
                ch: (float(np.nanmin(vals[ch])), float(np.nanmax(vals[ch])))
                for ch in ingest.CHANNELS
            }
        else:
            stats = {ch: (0.0, 0.0) for ch in ingest.CHANNELS}
        return MoteSeries(1, vals, arr, stats)

    def test_fully_present_unchanged(self):
        s = self.make_series([1.0, 2.0, 3.0], [1, 1, 1])
        filled = hold_fill(s)
        np.testing.assert_array_equal(filled.values["light"], [1.0, 2.0, 3.0])

    def test_hold_repeats_last_value(self):
        s = self.make_series([5.0, np.nan, np.nan, 7.0], [1, 0, 0, 1])
        filled = hold_fill(s)
        np.testing.assert_array_equal(filled.values["humidity"], [5.0, 5.0, 5.0, 7.0])
        np.testing.assert_array_equal(filled.present, [1, 0, 0, 1])

    def test_leading_gap_back_fills(self):
        s = self.make_series([np.nan, 4.0, np.nan], [0, 1, 0])
        filled = hold_fill(s)
        np.testing.assert_array_equal(filled.values["voltage"], [4.0, 4.0, 4.0])

    def test_all_absent_rejected(self):
        s = self.make_series([np.nan, np.nan], [0, 0])
        with pytest.raises(ConfigError):
            hold_fill(s)


class TestReplayIntegration:
    def test_replay_env_reproduces_series_exactly(self, tmp_path):
        from sensorq.env import EnvConfig, ReplayConfig, SensorEnv, SAMPLE

        lines = [
            f"2004-03-01 00:{i:02d}:00.0 {i} 1 {20 + np.sin(i / 3):.4f} 40.0 100.0 2.7"
            for i in range(20)
        ]
        series, _ = load_trace(write_trace(tmp_path, lines))
        trace = {m: hold_fill(s) for m, s in series.items()}
        cfg = EnvConfig(
            epochs=10,
            mode="replay",
            eta=0.0,
            replay=ReplayConfig(sensors=[(1, "temperature")]),
        )
        env = SensorEnv(cfg, trace=trace)
        env.reset(0)
        done = False
        while not done:
            _, _, done, _ = env.step([SAMPLE])
        expected = trace[1].values["temperature"][:10]
        got = env._values[0][env._kept[0]]
        np.testing.assert_array_equal(got, expected)

    def test_low_presence_window_excluded(self, tmp_path):
        from sensorq.env import EnvConfig, ReplayConfig, SensorEnv

        # slots 0-4 hold one reading (presence 0.2), slots 5-9 four (0.8)
        lines = [
            f"2004-03-01 00:{i:02d}:00.0 {i} 1 {20 + i}.0 40.0 100.0 2.7"
            for i in (0, 5, 6, 7, 9)
        ]
        series, _ = load_trace(write_trace(tmp_path, lines))
        trace = {m: hold_fill(s) for m, s in series.items()}
        cfg = EnvConfig(
            epochs=5,
            mode="replay",
            replay=ReplayConfig(sensors=[(1, "temperature")], min_presence=0.5),
        )
        env = SensorEnv(cfg, trace=trace)
        for seed in (0, 1):
            env.reset(seed)
            np.testing.assert_array_equal(env._truth[0], [25.0, 26.0, 27.0, 27.0, 29.0])

    @pytest.mark.parametrize("end_slot", [None, 20, 40])
    def test_every_window_supplies_epochs_values(self, tmp_path, end_slot):
        from sensorq.env import EnvConfig, ReplayConfig, SensorEnv

        lines = [
            f"2004-03-01 00:{i:02d}:00.0 {i} 1 {20 + i % 7}.0 40.0 100.0 2.7"
            for i in range(23)
        ]
        series, _ = load_trace(write_trace(tmp_path, lines))
        trace = {m: hold_fill(s) for m, s in series.items()}
        cfg = EnvConfig(
            epochs=8,
            mode="replay",
            replay=ReplayConfig(sensors=[(1, "temperature")], start_slot=1, end_slot=end_slot),
        )
        env = SensorEnv(cfg, trace=trace)
        env.reset(0)
        assert env._windows
        for seed, start in enumerate(env._windows):
            assert start + cfg.epochs <= 23
            env.reset(seed)
            np.testing.assert_array_equal(
                env._truth[0], trace[1].values["temperature"][start : start + cfg.epochs]
            )

    def test_report_csv(self, tmp_path):
        lines = [GOOD, "", "junk"]
        _, report = load_trace(write_trace(tmp_path, lines))
        out = tmp_path / "report.csv"
        ingest.write_report_csv(report, out)
        text = out.read_text()
        assert "kept,1" in text
        assert ingest.R_FIELDS in text

    def test_slot_range_splits_trace(self, tmp_path):
        from sensorq.env import EnvConfig, ReplayConfig, SensorEnv

        lines = [
            f"2004-03-01 00:{i:02d}:00.0 {i} 1 {20 + i % 7}.0 40.0 100.0 2.7"
            for i in range(30)
        ]
        series, _ = load_trace(write_trace(tmp_path, lines))
        trace = {m: hold_fill(s) for m, s in series.items()}
        cfg = EnvConfig(
            epochs=10,
            mode="replay",
            replay=ReplayConfig(sensors=[(1, "temperature")], start_slot=10, end_slot=30),
        )
        env = SensorEnv(cfg, trace=trace)
        env.reset(0)
        np.testing.assert_array_equal(env._truth[0], trace[1].values["temperature"][10:20])
