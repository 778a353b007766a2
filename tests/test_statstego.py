from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import norm

import oracles
from pestego import (
    BlockTooSmallError,
    Carrier,
    CarrierBlock,
    CarrierTooSmallError,
    DetectionStatistic,
    KeyPattern,
    LengthMismatchError,
    MessageLayout,
    OddBlockLengthError,
    StatParams,
    block_capacity,
    block_statistics,
    derive_pattern,
    detect_bit,
    embed_bit,
    embed_message,
    extract_message,
    normal_quantile,
    split_block,
    statistic,
)
from pestego.statstego import detect_blocks


def balanced_patterns(length: int):
    """Random balanced masks of the given even length."""
    return st.permutations([1] * (length // 2) + [0] * (length // 2)).map(
        lambda bits: KeyPattern(bytes(bits))
    )


class TestPattern:
    def test_deterministic(self):
        assert derive_pattern(b"key", 64) == derive_pattern(b"key", 64)

    def test_balance_16(self):
        assert derive_pattern(b"key", 16).ones == 8

    @given(key=st.binary(max_size=16), length=st.integers(1, 64).map(lambda n: 2 * n))
    def test_balance_any(self, key, length):
        pattern = derive_pattern(key, length)
        assert len(pattern) == length
        assert pattern.ones == length // 2

    def test_odd_length(self):
        with pytest.raises(OddBlockLengthError):
            derive_pattern(b"key", 7)

    def test_too_short(self):
        with pytest.raises(ValueError):
            derive_pattern(b"key", 0)

    def test_keys_differ(self):
        assert derive_pattern(b"key-a", 64) != derive_pattern(b"key-b", 64)

    def test_unbalanced_unrepresentable(self):
        with pytest.raises(ValueError):
            KeyPattern(bytes([1, 1, 1, 1]))
        with pytest.raises(ValueError):
            KeyPattern(bytes([1, 2, 0, 0]))


class TestSplit:
    def test_example(self):
        c, d = split_block(CarrierBlock(0, bytes([1, 2, 3, 4]), (1, 4)), KeyPattern(bytes([1, 0, 1, 0])))
        assert (list(c), list(d)) == ([1, 3], [2, 4])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            split_block(CarrierBlock(0, bytes(4), (1, 4)), KeyPattern(bytes([1, 0, 1, 0, 1, 0])))

    @given(data=st.data(), values=st.lists(st.integers(0, 255), min_size=8, max_size=8))
    def test_matches_oracle(self, data, values):
        pattern = data.draw(balanced_patterns(8))
        c, d = split_block(CarrierBlock(0, bytes(values), (2, 4)), pattern)
        oc, od = oracles.split_by_pattern(values, pattern.bits)
        assert (list(c), list(d)) == (oc, od)
        assert len(c) == len(d) == 4


class TestEmbedBit:
    def test_example(self):
        block = CarrierBlock(0, bytes([1, 2, 3, 4]), (1, 4))
        out = embed_bit(block, KeyPattern(bytes([1, 0, 1, 0])), 5, 1)
        assert list(out.values) == [6, 2, 8, 4]

    def test_bit_zero_is_identity(self):
        block = CarrierBlock(0, bytes([1, 2, 3, 4]), (1, 4))
        assert embed_bit(block, KeyPattern(bytes([1, 0, 1, 0])), 200, 0) == block

    def test_saturation(self):
        block = CarrierBlock(0, bytes([253, 2, 3, 4]), (1, 4))
        out = embed_bit(block, KeyPattern(bytes([1, 0, 1, 0])), 5, 1)
        assert list(out.values) == [255, 2, 8, 4]

    @given(
        data=st.data(),
        values=st.lists(st.integers(0, 255), min_size=8, max_size=8),
        k=st.integers(1, 300),
        bit=st.integers(0, 1),
    )
    def test_matches_oracle(self, data, values, k, bit):
        pattern = data.draw(balanced_patterns(8))
        out = embed_bit(CarrierBlock(0, bytes(values), (2, 4)), pattern, k, bit)
        assert list(out.values) == oracles.embed_by_hand(values, pattern.bits, k, bit)


class TestStatistic:
    def test_hand_computed_clean(self):
        stat = statistic(CarrierBlock(0, bytes([1, 2, 3, 4]), (1, 4)), KeyPattern(bytes([1, 0, 1, 0])))
        assert stat.mean_c == 2.0 and stat.mean_d == 3.0
        assert stat.sigma_hat == pytest.approx(math.sqrt(2), abs=1e-12)
        assert stat.q == pytest.approx(-1 / math.sqrt(2), abs=1e-9)

    def test_hand_computed_embedded(self):
        stat = statistic(CarrierBlock(0, bytes([6, 2, 8, 4]), (1, 4)), KeyPattern(bytes([1, 0, 1, 0])))
        assert stat.q == pytest.approx(4 / math.sqrt(2), abs=1e-9)

    def test_constant_block(self):
        stat = statistic(CarrierBlock(0, bytes([5, 5, 5, 5]), (1, 4)), KeyPattern(bytes([1, 0, 1, 0])))
        assert stat.sigma_hat == 0.0 and stat.q == 0.0

    def test_zero_spread_unequal_means(self):
        stat = statistic(CarrierBlock(0, bytes([5, 5, 3, 3]), (1, 4)), KeyPattern(bytes([1, 1, 0, 0])))
        assert stat.q == math.inf
        stat = statistic(CarrierBlock(0, bytes([3, 3, 5, 5]), (1, 4)), KeyPattern(bytes([1, 1, 0, 0])))
        assert stat.q == -math.inf

    def test_block_too_small(self):
        with pytest.raises(BlockTooSmallError):
            statistic(CarrierBlock(0, bytes([1, 2]), (1, 2)), KeyPattern(bytes([1, 0])))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            statistic(CarrierBlock(0, bytes(4), (1, 4)), KeyPattern(bytes([1, 0] * 3)))

    @given(data=st.data(), values=st.lists(st.integers(0, 255), min_size=16, max_size=16))
    def test_matches_oracle(self, data, values):
        pattern = data.draw(balanced_patterns(16))
        stat = statistic(CarrierBlock(0, bytes(values), (4, 4)), pattern)
        expected = oracles.q_statistic(values, pattern.bits)
        if math.isinf(expected):
            assert stat.q == expected
        else:
            assert stat.q == pytest.approx(expected, abs=1e-9)


class TestDetect:
    def test_detects_marked(self):
        params = StatParams(alpha=0.05)
        assert detect_bit(DetectionStatistic(q=2.8284, sigma_hat=1, mean_c=0, mean_d=0), params) == 1

    def test_null_not_detected(self):
        for alpha in (0.05, 0.2, 0.49):
            assert detect_bit(DetectionStatistic(q=0.0, sigma_hat=1, mean_c=0, mean_d=0), StatParams(alpha=alpha)) == 0

    def test_strictly_greater(self):
        params = StatParams(alpha=0.05)
        assert detect_bit(DetectionStatistic(q=params.z_alpha, sigma_hat=1, mean_c=0, mean_d=0), params) == 0
        assert detect_bit(DetectionStatistic(q=params.z_alpha + 1e-9, sigma_hat=1, mean_c=0, mean_d=0), params) == 1


class TestQuantile:
    @given(p=st.floats(1e-9, 1 - 1e-9))
    def test_against_scipy(self, p):
        assert normal_quantile(p) == pytest.approx(float(norm.ppf(p)), abs=1e-6)

    @given(p=st.floats(1e-9, 1 - 1e-9))
    def test_cdf_roundtrip(self, p):
        assert oracles.normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_symmetry(self):
        assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975), abs=1e-12)

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(p)

    def test_z_alpha_invariant(self):
        for alpha in (0.05, 0.01, 0.001):
            assert StatParams(alpha=alpha).z_alpha == normal_quantile(1 - alpha)
        assert StatParams(alpha=0.05).z_alpha == pytest.approx(1.6449, abs=1e-4)


class TestParams:
    def test_validation(self):
        with pytest.raises(OddBlockLengthError):
            StatParams(block_rows=3, block_cols=3)
        with pytest.raises(ValueError):
            StatParams(k=0)
        with pytest.raises(ValueError):
            StatParams(alpha=1.5)
        with pytest.raises(ValueError):
            StatParams(block_rows=0)
        with pytest.raises(BlockTooSmallError):
            StatParams(block_rows=1, block_cols=2)
        with pytest.raises(ValueError, match="overflow"):
            StatParams(block_rows=4096, block_cols=4098)
        with pytest.raises(ValueError, match="too small"):
            StatParams(alpha=1e-17)
        assert StatParams(block_rows=4096, block_cols=4096).block_len == 1 << 24

    def test_layout_from_text(self):
        assert MessageLayout.from_text(" 01\n10 ").message_bits == (0, 1, 1, 0)
        assert MessageLayout.from_text("").block_count == 0
        with pytest.raises(ValueError):
            MessageLayout.from_text("012")
        with pytest.raises(ValueError):
            MessageLayout((0, 2))


def uniform_carrier(rng, width, height, high=256):
    return Carrier(width, height, rng.integers(0, high, size=width * height, dtype=np.uint8).tobytes())


class TestMessage:
    def test_partition_arithmetic(self):
        rng = np.random.default_rng(5)
        carrier = uniform_carrier(rng, 16, 16)
        params = StatParams()
        assert block_capacity(carrier, params) == 4
        out = embed_message(carrier, b"k", MessageLayout((0, 0, 0, 0)), params)
        assert out.pixels == carrier.pixels

    def test_too_many_bits(self):
        rng = np.random.default_rng(6)
        carrier = uniform_carrier(rng, 16, 16)
        with pytest.raises(CarrierTooSmallError):
            embed_message(carrier, b"k", MessageLayout((1,) * 5), StatParams())
        with pytest.raises(CarrierTooSmallError):
            extract_message(carrier, b"k", 5, StatParams())

    def test_all_zero_message_is_identity(self):
        rng = np.random.default_rng(7)
        carrier = uniform_carrier(rng, 64, 32)
        out = embed_message(carrier, b"k", MessageLayout((0,) * 32), StatParams())
        assert out.pixels == carrier.pixels

    def test_row_major_block_order(self):
        rng = np.random.default_rng(8)
        carrier = uniform_carrier(rng, 24, 16, high=16)
        params = StatParams(k=10)
        # only block index 1 marked: rows 0..8, cols 8..16
        out = embed_message(carrier, b"k", MessageLayout((0, 1, 0, 0, 0, 0)), params)
        before = carrier.as_array()
        after = out.as_array()
        changed = np.argwhere(before != after)
        assert changed.size > 0
        assert changed[:, 0].min() >= 0 and changed[:, 0].max() < 8
        assert changed[:, 1].min() >= 8 and changed[:, 1].max() < 16

    def test_edge_remainder_untouched(self):
        rng = np.random.default_rng(9)
        carrier = uniform_carrier(rng, 20, 20, high=16)
        params = StatParams(k=10)
        out = embed_message(carrier, b"k", MessageLayout((1, 1, 1, 1)), params)
        before = carrier.as_array()
        after = out.as_array()
        assert np.array_equal(before[16:, :], after[16:, :])
        assert np.array_equal(before[:, 16:], after[:, 16:])

    def test_roundtrip_low_noise(self):
        rng = np.random.default_rng(10)
        carrier = uniform_carrier(rng, 64, 64, high=16)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=16))
        params = StatParams(alpha=0.001)
        stego = embed_message(carrier, b"shared-key", MessageLayout(bits), params)
        assert tuple(extract_message(stego, b"shared-key", 16, params)) == bits

    def test_extract_zero_bits(self):
        rng = np.random.default_rng(11)
        carrier = uniform_carrier(rng, 16, 16)
        assert extract_message(carrier, b"k", 0, StatParams()) == []
        with pytest.raises(ValueError):
            extract_message(carrier, b"k", -1, StatParams())

    def test_extraction_matches_per_block_detection(self):
        rng = np.random.default_rng(12)
        carrier = uniform_carrier(rng, 32, 32, high=16)
        params = StatParams()
        bits = extract_message(carrier, b"k", 16, params)
        stats = block_statistics(carrier, b"k", 16, params)
        assert bits == [detect_bit(s, params) for s in stats]


def block_shapes():
    """(rows, cols) of every block StatParams accepts, up to 8x8."""
    return st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(lambda s: s[0] * s[1] % 2 == 0 and s[0] * s[1] >= 4)


@st.composite
def kernel_cases(draw):
    """A carrier with edge remainders, its params and a key; pixels are often near 0 or 255."""
    bh, bw = draw(block_shapes())
    width = bw * draw(st.integers(0, 5)) + draw(st.integers(0, bw - 1))
    height = bh * draw(st.integers(0, 5)) + draw(st.integers(0, bh - 1))
    low, high = draw(st.sampled_from([(0, 256), (0, 2), (250, 256), (7, 8)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    carrier = uniform_carrier(rng, max(width, 1), max(height, 1), high=high - low)
    carrier = Carrier(carrier.width, carrier.height, (carrier.as_array() + low).tobytes())
    params = StatParams(block_rows=bh, block_cols=bw, k=draw(st.integers(1, 300)), alpha=0.01)
    return carrier, params, draw(st.binary(max_size=8))


def loop_blocks(carrier: Carrier, params: StatParams):
    """(index, row, col) of every full block, row-major, the long way."""
    index = 0
    for r in range(0, carrier.height - params.block_rows + 1, params.block_rows):
        for c in range(0, carrier.width - params.block_cols + 1, params.block_cols):
            yield index, r, c
            index += 1


def one_block(grid: np.ndarray, params: StatParams, index: int, r: int, c: int) -> CarrierBlock:
    window = grid[r : r + params.block_rows, c : c + params.block_cols]
    return CarrierBlock(index, window.tobytes(), (params.block_rows, params.block_cols))


class TestBlockKernel:
    """The batched kernel against one-row calls, the oracle and the old per-block loops."""

    @given(case=kernel_cases())
    @example(case=(uniform_carrier(np.random.default_rng(4), 26, 13), StatParams(4, 6, alpha=0.01), b"k"))
    @example(case=(uniform_carrier(np.random.default_rng(5), 9, 3), StatParams(1, 4, alpha=0.01), b"k"))
    def test_batched_q_matches_one_row_and_oracle(self, case):
        carrier, params, key = case
        n = block_capacity(carrier, params)
        pattern = derive_pattern(key, params.block_len)
        q, bits = detect_blocks(carrier, key, n, params)
        stats = block_statistics(carrier, key, n, params)
        assert q.dtype == np.float64 and bits.dtype == np.uint8 and len(q) == len(stats) == n
        grid = carrier.as_array()
        for index, r, c in loop_blocks(carrier, params):
            block = one_block(grid, params, index, r, c)
            one = statistic(block, pattern)
            assert stats[index] == one
            assert q[index] == one.q
            assert bits[index] == detect_bit(one, params)
            expected = oracles.q_statistic(list(block.values), pattern.bits)
            if math.isinf(expected):
                assert one.q == expected
            else:
                assert one.q == pytest.approx(expected, abs=1e-9)

    @given(
        shape=block_shapes(),
        levels=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), min_size=1, max_size=6),
    )
    @example(shape=(4, 6), levels=[(0, 0), (255, 0), (3, 200)])
    def test_constant_halves_give_zero_or_infinity(self, shape, levels):
        """Blocks whose C and D halves are each constant, at levels (C, D)."""
        bh, bw = shape
        params = StatParams(block_rows=bh, block_cols=bw)
        mask = np.frombuffer(derive_pattern(b"k", params.block_len).bits, dtype=np.uint8).astype(bool)
        tiles = [np.where(mask, c, d).astype(np.uint8).reshape(bh, bw) for c, d in levels]
        carrier = Carrier(bw * len(tiles), bh, np.hstack(tiles).tobytes())
        q, _ = detect_blocks(carrier, b"k", len(tiles), params)
        expected = [0.0 if c == d else math.copysign(math.inf, c - d) for c, d in levels]
        assert q.tolist() == expected

    @given(case=kernel_cases(), data=st.data())
    def test_embed_message_matches_embed_bit_loop(self, case, data):
        carrier, params, key = case
        n = block_capacity(carrier, params)
        message = tuple(data.draw(st.lists(st.integers(0, 1), max_size=n)))
        out = embed_message(carrier, key, MessageLayout(message), params)
        pattern = derive_pattern(key, params.block_len)
        grid = carrier.as_array().copy()
        for index, r, c in loop_blocks(carrier, params):
            if index < len(message):
                marked = embed_bit(one_block(grid, params, index, r, c), pattern, params.k, message[index])
                grid[r : r + params.block_rows, c : c + params.block_cols] = np.frombuffer(
                    marked.values, dtype=np.uint8
                ).reshape(params.block_rows, params.block_cols)
        assert out.pixels == grid.tobytes()
        before, after = carrier.as_array(), out.as_array()
        full_h = carrier.height - carrier.height % params.block_rows
        full_w = carrier.width - carrier.width % params.block_cols
        assert np.array_equal(before[full_h:], after[full_h:])
        assert np.array_equal(before[:, full_w:], after[:, full_w:])

    def test_saturation_at_255(self):
        carrier = Carrier(8, 8, bytes([250]) * 64)
        out = embed_message(carrier, b"k", MessageLayout((1,)), StatParams(k=300))
        assert sorted(set(out.pixels)) == [250, 255]


class TestDistributions:
    """Seeded statistical invariants of the detector."""

    def test_null_calibration(self):
        rng = np.random.default_rng(1001)
        pattern = derive_pattern(b"calibration", 64)
        qs = np.array(
            [
                statistic(CarrierBlock(0, rng.integers(0, 256, 64, dtype=np.uint8).tobytes(), (8, 8)), pattern).q
                for _ in range(2000)
            ]
        )
        assert -0.1 <= qs.mean() <= 0.1
        assert 0.8 <= qs.var(ddof=1) <= 1.25
        for alpha in (0.05, 0.01):
            rate = float(np.mean(qs > StatParams(alpha=alpha).z_alpha))
            assert 0.5 * alpha <= rate <= 1.5 * alpha, (alpha, rate)

    def test_mean_shift_at_k1(self):
        rng = np.random.default_rng(1002)
        pattern = derive_pattern(b"shift", 64)
        clean, marked = [], []
        for _ in range(1000):
            block = CarrierBlock(0, rng.integers(0, 32, 64, dtype=np.uint8).tobytes(), (8, 8))
            clean.append(statistic(block, pattern).q)
            marked.append(statistic(embed_bit(block, pattern, 1, 1), pattern).q)
        assert np.mean(marked) - np.mean(clean) > 0

    def test_wrong_key_gives_no_signal(self):
        rng = np.random.default_rng(1003)
        right = derive_pattern(b"right-key", 64)
        params = StatParams()
        hits_right = hits_wrong = 0
        q_wrong_total = 0.0
        trials_per_key = 40
        wrong_keys = [f"wrong-{i}".encode() for i in range(50)]
        for wrong_key in wrong_keys:
            wrong = derive_pattern(wrong_key, 64)
            for _ in range(trials_per_key):
                block = CarrierBlock(0, rng.integers(0, 16, 64, dtype=np.uint8).tobytes(), (8, 8))
                marked = embed_bit(block, right, 10, 1)
                hits_right += detect_bit(statistic(marked, right), params)
                stat = statistic(marked, wrong)
                hits_wrong += detect_bit(stat, params)
                q_wrong_total += stat.q
        n = len(wrong_keys) * trials_per_key
        assert hits_right / n >= 0.99
        # pooled over many wrong keys the statistic carries no mark signal
        assert hits_wrong / n < 0.3
        assert abs(q_wrong_total / n) < 0.3
