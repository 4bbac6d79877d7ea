"""The counter-based RNG core and the trace-level noise model.

Two kinds of pins live here. The behavioural ones (key handling,
broadcasting, stream separation, validation) guard the API. The
GOLDEN_* pins fix the *stream values themselves*: recorded campaign
results are reproducible only while every draw hashes to the same bits,
so changing any mixing constant, stream tag or key encoding must show
up as a loud failure here, not as silently different campaigns.
"""

import numpy as np
import pytest

from repro.core.rng import (
    STREAM_DERIVE,
    STREAM_MISS,
    STREAM_NOISE_X,
    STREAM_NOISE_Y,
    counter_hash,
    counter_normal,
    counter_uniform,
    derive_seed,
    stable_key,
    time_key,
)
from repro.errors import ConfigurationError
from repro.perception.noise import PerceptionNoise


class TestStableKey:
    def test_int_keys_by_bit_pattern(self):
        assert int(stable_key(0)) == 0
        assert int(stable_key(1)) == 1
        # Two's complement: -1 is all ones.
        assert int(stable_key(-1)) == 0xFFFFFFFFFFFFFFFF
        assert int(stable_key(np.int32(7))) == 7

    def test_large_int_reduced_mod_2_64(self):
        assert stable_key(2**64 + 5) == stable_key(5)

    def test_float_keys_by_ieee_bits(self):
        assert int(stable_key(1.5)) == 0x3FF8000000000000
        assert int(stable_key(0.0)) == 0
        assert stable_key(np.float64(2.25)) == stable_key(2.25)

    def test_int_and_float_keys_disjoint(self):
        # 1 and 1.0 are different identities: bit patterns differ.
        assert stable_key(1) != stable_key(1.0)

    def test_str_and_bytes_agree(self):
        assert stable_key("actor") == stable_key(b"actor")

    def test_str_keys_differ(self):
        assert stable_key("a") != stable_key("b")
        assert stable_key("") != stable_key("a")

    def test_bool_rejected(self):
        with pytest.raises(ConfigurationError):
            stable_key(True)

    def test_unkeyable_type_rejected(self):
        with pytest.raises(ConfigurationError):
            stable_key(("tuple", "id"))

    def test_never_uses_python_hash(self):
        # PYTHONHASHSEED-independence: the FNV path is fixed for all
        # time, pinned below in TestGoldenStreams.
        assert int(stable_key("perception.miss")) == 0x06212A57895BEB2C


class TestTimeKey:
    def test_scalar_bit_pattern(self):
        assert int(time_key(1.5)) == 0x3FF8000000000000
        assert time_key(0.3) == stable_key(0.3)

    def test_array_elementwise(self):
        times = np.array([0.0, 0.05, 0.1])
        words = time_key(times)
        assert words.shape == times.shape
        assert words[1] == time_key(0.05)

    def test_bit_equal_times_only(self):
        # 0.1 + 0.2 != 0.3 in floats: different instants, different keys.
        assert time_key(0.1 + 0.2) != time_key(0.3)


class TestCounterDraws:
    def test_scalar_vector_parity(self):
        words = np.array([stable_key("a"), stable_key("b"), stable_key("c")])
        batch = counter_uniform(3, STREAM_MISS, time_key(0.5), words)
        singles = [
            float(counter_uniform(3, STREAM_MISS, time_key(0.5), w))
            for w in words
        ]
        assert batch.tolist() == singles

    def test_chunked_equals_whole(self):
        times = time_key(0.05 * np.arange(100))
        whole = counter_normal(1, STREAM_NOISE_X, times, stable_key("a"))
        parts = np.concatenate(
            [
                counter_normal(1, STREAM_NOISE_X, times[i : i + 7], stable_key("a"))
                for i in range(0, 100, 7)
            ]
        )
        assert whole.tolist() == parts.tolist()

    def test_streams_are_independent(self):
        keys = (time_key(1.0), stable_key("a"))
        draws = {
            float(counter_uniform(0, stream, *keys))
            for stream in (STREAM_MISS, STREAM_NOISE_X, STREAM_NOISE_Y, STREAM_DERIVE)
        }
        assert len(draws) == 4

    def test_seed_separates(self):
        keys = (time_key(1.0), stable_key("a"))
        assert counter_uniform(0, STREAM_MISS, *keys) != counter_uniform(
            1, STREAM_MISS, *keys
        )

    def test_uniform_range(self):
        draws = counter_uniform(
            0, STREAM_MISS, time_key(0.01 * np.arange(10_000))
        )
        assert draws.min() >= 0.0
        assert draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.02

    def test_normal_moments(self):
        draws = counter_normal(
            0, STREAM_NOISE_X, time_key(0.01 * np.arange(20_000))
        )
        assert np.isfinite(draws).all()
        assert abs(draws.mean()) < 0.03
        assert abs(draws.std() - 1.0) < 0.03

    def test_string_stream_accepted(self):
        # Streams may be named inline; equal names, equal draws.
        assert counter_uniform(0, "my.stream", 1) == counter_uniform(
            0, stable_key("my.stream"), 1
        )

    def test_stacked_streams_equal_separate_calls(self):
        # A (k, 1) column of stream words against (n,) keys: row i is
        # bit for bit the separate call on stream i — how perception
        # draws a frame's x and y noise in one call.
        streams = [STREAM_MISS, STREAM_NOISE_X, STREAM_NOISE_Y]
        column = np.array(streams, dtype=np.uint64)[:, None]
        keys = (stable_key("front_120"), time_key(2.37))
        actors = np.array(
            [stable_key(a) for a in ("a", "b", 7, "lead")], dtype=np.uint64
        )
        stacked = counter_normal(5, column, *keys, actors)
        assert stacked.shape == (3, 4)
        for row, stream in enumerate(streams):
            single = counter_normal(5, stream, *keys, actors)
            bits = stacked[row].view(np.uint64)
            assert (bits == single.view(np.uint64)).all()
        words = counter_hash(5, column, *keys, actors)
        uniform = counter_uniform(5, column, *keys, actors)
        for row, stream in enumerate(streams):
            assert (words[row] == counter_hash(5, stream, *keys, actors)).all()
            assert (
                uniform[row] == counter_uniform(5, stream, *keys, actors)
            ).all()

    def test_derive_seed_decorrelates(self):
        children = {derive_seed(0, s, f) for s in range(4) for f in range(4)}
        assert len(children) == 16
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)


class TestGoldenStreams:
    """The pinned bits of the recorded-stream contract.

    These values were frozen when the counter-based generator replaced
    the stateful ``np.random.Generator`` streams (the one-time
    deliberate RNG break — see docs/TESTING.md, "RNG determinism
    contract"). Any change here invalidates every recorded stochastic
    campaign; regenerate goldens and say so loudly in the changelog.
    """

    def test_stream_tags(self):
        assert int(STREAM_MISS) == 0x06212A57895BEB2C
        assert int(STREAM_NOISE_X) == 0x9A45C810BB9C7A68
        assert int(STREAM_NOISE_Y) == 0x9A45C910BB9C7C1B
        assert int(STREAM_DERIVE) == 0xC9350D641FB3046D

    def test_stable_key_pins(self):
        # FNV-1a over UTF-8: the empty string is the offset basis; the
        # non-ASCII string and the high byte cover multi-byte input.
        pins = {
            "": 0xCBF29CE484222325,
            "front_120": 0xE6B44A840426F86E,
            "Zhuyi 注意 — ü": 0xEF9DDC46ACF06469,
            b"\xff\x00": 0x0A99A607B6F60BEA,
        }
        for value, word in pins.items():
            key = stable_key(value)
            assert isinstance(key, np.uint64)
            assert int(key) == word, value

    def test_hash_pin(self):
        word = counter_hash(0, STREAM_MISS, stable_key("a"), time_key(1.0))
        assert int(word) == 0x7C5F2EA37C779EB1

    def test_uniform_pin(self):
        value = counter_uniform(0, STREAM_MISS, stable_key("a"), time_key(1.0))
        assert float(value) == 0.4858273648391943

    def test_normal_pin(self):
        value = counter_normal(0, STREAM_NOISE_X, stable_key("a"), time_key(1.0))
        assert float(value) == -0.4508968514543348

    def test_derive_seed_pin(self):
        assert derive_seed(0, 1, 2) == 3507520669832435036


class TestPerceptionNoise:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PerceptionNoise(miss_rate=1.0)
        with pytest.raises(ConfigurationError):
            PerceptionNoise(miss_rate=-0.1)
        with pytest.raises(ConfigurationError):
            PerceptionNoise(position_noise=-0.5)

    def test_enabled(self):
        assert not PerceptionNoise().enabled
        assert PerceptionNoise(miss_rate=0.1).enabled
        assert PerceptionNoise(position_noise=0.1).enabled

    def test_sample_actor_shapes_and_determinism(self):
        noise = PerceptionNoise(miss_rate=0.3, position_noise=0.5, seed=3)
        times = 0.05 * np.arange(50)
        detected, dx, dy = noise.sample_actor("lead", times)
        assert detected.shape == dx.shape == dy.shape == times.shape
        again = noise.sample_actor("lead", times)
        assert detected.tolist() == again[0].tolist()
        assert dx.tolist() == again[1].tolist()
        # The x and y channels are distinct streams.
        assert dx.tolist() != dy.tolist()

    def test_disabled_channels(self):
        times = 0.05 * np.arange(10)
        detected, dx, dy = PerceptionNoise(position_noise=0.5).sample_actor(
            "a", times
        )
        assert detected.all()
        detected, dx, dy = PerceptionNoise(miss_rate=0.5, seed=1).sample_actor(
            "a", times
        )
        assert not detected.all()
        assert not dx.any() and not dy.any()

    def test_subset_draws_subset_values(self):
        # The order-independence core: any window of a grid draws the
        # window of the grid's values.
        noise = PerceptionNoise(miss_rate=0.3, position_noise=0.5, seed=3)
        times = 0.05 * np.arange(60)
        _, dx, _ = noise.sample_actor("a", times)
        _, dx_win, _ = noise.sample_actor("a", times[20:40])
        assert dx[20:40].tolist() == dx_win.tolist()

    def test_for_cell_is_pure_and_decorrelated(self):
        root = PerceptionNoise(miss_rate=0.2, position_noise=0.1, seed=9)
        cell = root.for_cell("cut_in", 0, 30.0)
        assert cell == root.for_cell("cut_in", 0, 30.0)
        assert cell.seed != root.seed
        assert cell.miss_rate == root.miss_rate
        others = {
            root.for_cell(s, seed, fpr).seed
            for s in ("cut_in", "cut_out")
            for seed in (0, 1)
            for fpr in (10.0, 30.0)
        }
        assert len(others) == 8

    def test_dict_round_trip(self):
        noise = PerceptionNoise(miss_rate=0.25, position_noise=0.4, seed=11)
        assert PerceptionNoise.from_dict(noise.to_dict()) == noise
