from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import norm

import oracles
from one_block import detect_block, embed_block
from pestego import (
    BlockTooSmallError,
    Carrier,
    CarrierTooSmallError,
    KeyPattern,
    MessageLayout,
    OddBlockLengthError,
    StatParams,
    block_capacity,
    derive_pattern,
    detect_blocks,
    embed_message,
    normal_quantile,
)
from pestego.errors import _shown
from pestego.statstego import _shape


class TestPattern:
    def test_deterministic(self):
        assert derive_pattern(b"key", 64) == derive_pattern(b"key", 64)

    def test_balance_16(self):
        assert derive_pattern(b"key", 16).bits.count(1) == 8

    @given(key=st.binary(max_size=16), length=st.integers(1, 64).map(lambda n: 2 * n))
    def test_balance_any(self, key, length):
        pattern = derive_pattern(key, length)
        assert len(pattern) == length
        assert pattern.bits.count(1) == length // 2

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

    @given(key=st.binary(max_size=64), length=st.integers(1, 2048).map(lambda n: 2 * n))
    @example(key=b"pinned", length=65536)
    @example(key=b"", length=64)
    def test_matches_recipe(self, key, length):
        """The mask is the pinned recipe's, computed independently, for any key and even length."""
        assert derive_pattern(key, length).bits == oracles.pattern_by_recipe(key, length)


# Keys whose derived masks at block length 4 the tests below rely on.
KEY_1010 = b"key"
KEY_1100 = b"acceptance"


class TestEmbedBit:
    """One bit into a carrier of one block."""

    def test_example(self):
        assert derive_pattern(KEY_1010, 4).bits == bytes([1, 0, 1, 0])
        assert list(embed_block(bytes([1, 2, 3, 4]), (1, 4), KEY_1010, 5, 1)) == [6, 2, 8, 4]

    @pytest.mark.parametrize("values, shape", [(bytes([1, 2, 3, 4]), (-1, -4)), (b"", (0, 0)), (b"", (0, 4))])
    def test_nonpositive_shape_refused(self, values, shape):
        """A block shape below 1 is refused as block parameters and as the carrier of one block."""
        rows, cols = shape
        with pytest.raises(ValueError, match="positive"):
            StatParams(rows, cols)
        with pytest.raises(ValueError, match="positive"):
            Carrier(cols, rows, values)

    def test_bit_zero_is_identity(self):
        assert embed_block(bytes([1, 2, 3, 4]), (1, 4), KEY_1010, 200, 0) == bytes([1, 2, 3, 4])

    def test_saturation(self):
        assert derive_pattern(KEY_1010, 4).bits == bytes([1, 0, 1, 0])
        assert list(embed_block(bytes([253, 2, 3, 4]), (1, 4), KEY_1010, 5, 1)) == [255, 2, 8, 4]

    @given(
        key=st.binary(max_size=8),
        values=st.lists(st.integers(0, 255), min_size=8, max_size=8),
        k=st.integers(1, 300),
        bit=st.integers(0, 1),
    )
    def test_matches_oracle(self, key, values, k, bit):
        out = embed_block(bytes(values), (2, 4), key, k, bit)
        assert list(out) == oracles.embed_by_hand(values, derive_pattern(key, 8).bits, k, bit)


class TestStatistic:
    """q of a carrier of one block."""

    def test_hand_computed_clean(self):
        assert derive_pattern(KEY_1010, 4).bits == bytes([1, 0, 1, 0])
        q, _ = detect_block(bytes([1, 2, 3, 4]), (1, 4), KEY_1010)
        assert q == pytest.approx(-1 / math.sqrt(2), abs=1e-9)

    def test_hand_computed_embedded(self):
        assert derive_pattern(KEY_1010, 4).bits == bytes([1, 0, 1, 0])
        q, _ = detect_block(bytes([6, 2, 8, 4]), (1, 4), KEY_1010)
        assert q == pytest.approx(4 / math.sqrt(2), abs=1e-9)

    def test_constant_block(self):
        assert detect_block(bytes([5, 5, 5, 5]), (1, 4), KEY_1010)[0] == 0.0

    def test_zero_spread_unequal_means(self):
        assert derive_pattern(KEY_1100, 4).bits == bytes([1, 1, 0, 0])
        assert detect_block(bytes([5, 5, 3, 3]), (1, 4), KEY_1100)[0] == math.inf
        assert detect_block(bytes([3, 3, 5, 5]), (1, 4), KEY_1100)[0] == -math.inf

    def test_block_too_small(self):
        """Fewer than two values per set cannot be standardized; the block parameters refuse it."""
        with pytest.raises(BlockTooSmallError):
            detect_block(bytes([1, 2]), (1, 2), KEY_1010)

    @given(key=st.binary(max_size=8), values=st.lists(st.integers(0, 255), min_size=16, max_size=16))
    def test_matches_oracle(self, key, values):
        q, _ = detect_block(bytes(values), (4, 4), key)
        expected = oracles.q_statistic(values, derive_pattern(key, 16).bits)
        if math.isinf(expected):
            assert q == expected
        else:
            assert q == pytest.approx(expected, abs=1e-9)


class TestDetect:
    def test_detects_marked(self):
        assert derive_pattern(KEY_1010, 4).bits == bytes([1, 0, 1, 0])
        q, bit = detect_block(bytes([6, 2, 8, 4]), (1, 4), KEY_1010, alpha=0.05)
        assert q == pytest.approx(2.8284, abs=1e-4) and bit == 1

    def test_null_not_detected(self):
        for alpha in (0.05, 0.2, 0.49):
            assert detect_block(bytes([5, 5, 5, 5]), (1, 4), KEY_1010, alpha) == (0.0, 0)

    def test_strictly_greater(self):
        """At alpha 0.5 z_alpha is exactly 0: q = 0 reads 0, any q above it reads 1."""
        assert StatParams(alpha=0.5).z_alpha == 0.0
        assert derive_pattern(KEY_1010, 4).bits == bytes([1, 0, 1, 0])
        assert detect_block(bytes([5, 5, 5, 5]), (1, 4), KEY_1010, alpha=0.5) == (0.0, 0)
        assert detect_block(bytes([2, 1, 2, 1]), (1, 4), KEY_1010, alpha=0.5) == (math.inf, 1)


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

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(
                lambda: Carrier(0, 10**4400, b""),
                f"carrier dimensions must be positive, got 0x1{'0' * 31} (first 32 of 4401 characters)",
                id="carrier-zero-by-past-digit-limit",
            ),
            pytest.param(
                lambda: Carrier(-(10**4400), 3, b""),
                f"carrier dimensions must be positive, got -1{'0' * 30} (first 32 of 4402 characters)x3",
                id="carrier-negative-past-digit-limit",
            ),
            pytest.param(
                lambda: StatParams(block_rows=10**4400 - 1, block_cols=2),
                f"block of 2x{'9' * 32} (first 32 of 4400 characters) exceeds 16777216 pixels,"
                " past which an int64 implementation of the detection sums would overflow",
                id="block-past-digit-limit",
            ),
            pytest.param(
                lambda: StatParams(block_rows=0, block_cols=8), "block dimensions must be positive, got 8x0", id="block-zero"
            ),
        ],
    )
    def test_refused_shape_reads_wxh_cut_to_32_characters(self, build, message):
        """Even a number that str() refuses, one past int()'s digit limit, shows its first 32 digits and its length."""
        with pytest.raises(ValueError) as refusal:
            build()
        assert str(refusal.value) == message

    @given(st.integers(-(10**4000), 10**4000))
    @example(10**32 - 1)
    @example(10**32)
    @example(-(10**31))
    @example(-(10**32))
    @example(10**41)
    @example(10**4000)
    @example(-(10**4000) + 1)
    def test_shape_cuts_a_number_as_its_digits_are_cut(self, n):
        assert _shown(n) == oracles.shown_number(n)
        assert _shape(n, 7) == f"{oracles.shown_number(n)}x7"

    def test_layout_from_text(self):
        assert MessageLayout.from_text(" 01\n10 ").message_bits == (0, 1, 1, 0)
        assert MessageLayout.from_text("").block_count == 0
        with pytest.raises(ValueError):
            MessageLayout.from_text("012")
        with pytest.raises(ValueError):
            MessageLayout((0, 2))


VALID_FIELDS = {
    KeyPattern: (b"\x01\x00",),
    Carrier: (2, 1, b"ab"),
    StatParams: (8, 8, 10, 0.05),
    MessageLayout: ((0, 1),),
}

# (type, fields to change in its VALID_FIELDS, the exception the changed fields raise)
INVALID_CHANGES = [
    pytest.param(KeyPattern, {"bits": b"\x01\x01"}, ValueError, id="KeyPattern-unbalanced"),
    pytest.param(Carrier, {"width": 0, "height": 0, "pixels": b""}, ValueError, id="Carrier-empty"),
    pytest.param(Carrier, {"pixels": b"abc"}, ValueError, id="Carrier-pixel-count"),
    pytest.param(StatParams, {"block_rows": -1, "block_cols": -4}, ValueError, id="StatParams-negative-shape"),
    pytest.param(StatParams, {"block_rows": 1, "block_cols": 3}, OddBlockLengthError, id="StatParams-odd"),
    pytest.param(StatParams, {"k": 0}, ValueError, id="StatParams-k"),
    pytest.param(StatParams, {"block_rows": 1, "block_cols": 2}, BlockTooSmallError, id="StatParams-block"),
    pytest.param(MessageLayout, {"message_bits": (0, 2)}, ValueError, id="MessageLayout-bits"),
]

# Each way to build a value from (type, valid fields, fields).  Copy and pickle
# start from an unchecked instance, so that only their own construction can refuse it.
CONSTRUCTION_PATHS = {
    "call": lambda cls, valid, fields: cls(*fields),
    "keywords": lambda cls, valid, fields: cls(**dict(zip(cls._fields, fields))),
    "_make": lambda cls, valid, fields: cls._make(fields),
    "_replace": lambda cls, valid, fields: cls(*valid)._replace(**dict(zip(cls._fields, fields))),
    "copy": lambda cls, valid, fields: copy.copy(tuple.__new__(cls, fields)),
    "deepcopy": lambda cls, valid, fields: copy.deepcopy(tuple.__new__(cls, fields)),
    "pickle": lambda cls, valid, fields: pickle.loads(pickle.dumps(tuple.__new__(cls, fields))),
}


class TestValueTypes:
    @pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
    @pytest.mark.parametrize("cls, changes, error", INVALID_CHANGES)
    def test_every_construction_path_checks(self, cls, changes, error, path):
        build, valid = CONSTRUCTION_PATHS[path], VALID_FIELDS[cls]
        made = build(cls, valid, valid)
        assert type(made) is cls and made == cls(*valid)
        invalid = tuple(changes.get(name, value) for name, value in zip(cls._fields, valid))
        with pytest.raises(error):
            build(cls, valid, invalid)

    @pytest.mark.parametrize("cls, valid", [pytest.param(*item, id=item[0].__name__) for item in VALID_FIELDS.items()])
    def test_valid_values_are_immutable_and_hashable(self, cls, valid):
        value = cls(*valid)
        assert value == cls(*valid) and hash(value) == hash(cls(*valid))
        for name in (*cls._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, valid[0])


def pixel_grid(carrier: Carrier) -> np.ndarray:
    """Read-only (height, width) uint8 view of the carrier's pixels."""
    return np.frombuffer(carrier.pixels, dtype=np.uint8).reshape(carrier.height, carrier.width)


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
            detect_blocks(carrier, b"k", 5, StatParams())

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
        before = pixel_grid(carrier)
        after = pixel_grid(out)
        changed = np.argwhere(before != after)
        assert changed.size > 0
        assert changed[:, 0].min() >= 0 and changed[:, 0].max() < 8
        assert changed[:, 1].min() >= 8 and changed[:, 1].max() < 16

    def test_edge_remainder_untouched(self):
        rng = np.random.default_rng(9)
        carrier = uniform_carrier(rng, 20, 20, high=16)
        params = StatParams(k=10)
        out = embed_message(carrier, b"k", MessageLayout((1, 1, 1, 1)), params)
        before = pixel_grid(carrier)
        after = pixel_grid(out)
        assert np.array_equal(before[16:, :], after[16:, :])
        assert np.array_equal(before[:, 16:], after[:, 16:])

    def test_roundtrip_low_noise(self):
        rng = np.random.default_rng(10)
        carrier = uniform_carrier(rng, 64, 64, high=16)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=16))
        params = StatParams(alpha=0.001)
        stego = embed_message(carrier, b"shared-key", MessageLayout(bits), params)
        assert tuple(detect_blocks(stego, b"shared-key", 16, params)[1]) == bits

    def test_extract_zero_bits(self):
        rng = np.random.default_rng(11)
        carrier = uniform_carrier(rng, 16, 16)
        q, bits = detect_blocks(carrier, b"k", 0, StatParams())
        assert q.tolist() == [] and bits.tolist() == []
        with pytest.raises(ValueError):
            detect_blocks(carrier, b"k", -1, StatParams())

    def test_extraction_matches_per_block_detection(self):
        rng = np.random.default_rng(12)
        carrier = uniform_carrier(rng, 32, 32, high=16)
        params = StatParams()
        bits = detect_blocks(carrier, b"k", 16, params)[1].tolist()
        grid, shape = pixel_grid(carrier), (params.block_rows, params.block_cols)
        blocks = [block_pixels(grid, params, r, c) for _, r, c in loop_blocks(carrier, params)]
        assert bits == [detect_block(values, shape, b"k", params.alpha)[1] for values in blocks]


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
    carrier = Carrier(carrier.width, carrier.height, (pixel_grid(carrier) + low).tobytes())
    params = StatParams(block_rows=bh, block_cols=bw, k=draw(st.integers(1, 300)), alpha=0.01)
    return carrier, params, draw(st.binary(max_size=8))


def loop_blocks(carrier: Carrier, params: StatParams):
    """(index, row, col) of every full block, row-major, the long way."""
    index = 0
    for r in range(0, carrier.height - params.block_rows + 1, params.block_rows):
        for c in range(0, carrier.width - params.block_cols + 1, params.block_cols):
            yield index, r, c
            index += 1


def block_pixels(grid: np.ndarray, params: StatParams, r: int, c: int) -> bytes:
    """Pixels of the block whose top left corner is (r, c), row-major."""
    return grid[r : r + params.block_rows, c : c + params.block_cols].tobytes()


class TestBlockKernel:
    """The batched kernel against carriers of one block and the oracles."""

    @given(case=kernel_cases())
    @example(case=(uniform_carrier(np.random.default_rng(4), 26, 13), StatParams(4, 6, alpha=0.01), b"k"))
    @example(case=(uniform_carrier(np.random.default_rng(5), 9, 3), StatParams(1, 4, alpha=0.01), b"k"))
    def test_batched_q_matches_one_row_and_oracle(self, case):
        carrier, params, key = case
        n = block_capacity(carrier, params)
        pattern = derive_pattern(key, params.block_len)
        q, bits = detect_blocks(carrier, key, n, params)
        assert q.typecode == "d" and bits.typecode == "B" and len(q) == len(bits) == n
        grid, shape = pixel_grid(carrier), (params.block_rows, params.block_cols)
        for index, r, c in loop_blocks(carrier, params):
            values = block_pixels(grid, params, r, c)
            assert (q[index], bits[index]) == detect_block(values, shape, key, params.alpha)
            expected = oracles.q_statistic(list(values), pattern.bits)
            if math.isinf(expected):
                assert q[index] == expected
            else:
                assert q[index] == pytest.approx(expected, abs=1e-9)

    @given(case=kernel_cases(), data=st.data())
    def test_fewer_bits_read_a_prefix(self, case, data):
        carrier, params, key = case
        n = block_capacity(carrier, params)
        bit_count = data.draw(st.integers(0, n))
        q_all, bits_all = detect_blocks(carrier, key, n, params)
        q, bits = detect_blocks(carrier, key, bit_count, params)
        assert q.tolist() == q_all[:bit_count].tolist()
        assert bits.tolist() == bits_all[:bit_count].tolist()

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
        grid, shape = pixel_grid(carrier).copy(), (params.block_rows, params.block_cols)
        for index, r, c in loop_blocks(carrier, params):
            if index < len(message):
                values = block_pixels(grid, params, r, c)
                marked = embed_block(values, shape, key, params.k, message[index])
                assert list(marked) == oracles.embed_by_hand(values, pattern.bits, params.k, message[index])
                block = np.frombuffer(marked, dtype=np.uint8).reshape(shape)
                grid[r : r + params.block_rows, c : c + params.block_cols] = block
        assert out.pixels == grid.tobytes()
        before, after = pixel_grid(carrier), pixel_grid(out)
        full_h = carrier.height - carrier.height % params.block_rows
        full_w = carrier.width - carrier.width % params.block_cols
        assert np.array_equal(before[full_h:], after[full_h:])
        assert np.array_equal(before[:, full_w:], after[:, full_w:])

    def test_saturation_at_255(self):
        carrier = Carrier(8, 8, bytes([250]) * 64)
        out = embed_message(carrier, b"k", MessageLayout((1,)), StatParams(k=300))
        assert sorted(set(out.pixels)) == [250, 255]


def range_case(seed: int, width: int, height: int, shape: tuple[int, int], first: int, count: int):
    """A uniform carrier, params of the block shape, and the range of count blocks from block first."""
    carrier = uniform_carrier(np.random.default_rng(seed), width, height)
    return carrier, StatParams(block_rows=shape[0], block_cols=shape[1], alpha=0.01), first, count


@st.composite
def range_cases(draw):
    """A carrier up to 64x48 with pixels of a full or a narrow range, and blocks first..first+count-1 of it."""
    bh, bw = draw(block_shapes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width, height, high = draw(st.integers(1, 64)), draw(st.integers(1, 48)), draw(st.sampled_from([2, 256]))
    carrier = uniform_carrier(rng, width, height, high=high)
    params = StatParams(block_rows=bh, block_cols=bw, alpha=0.01)
    n = block_capacity(carrier, params)
    first = draw(st.integers(0, n))
    return carrier, params, first, draw(st.integers(0, n - first))


class TestRangeRead:
    """detect_blocks from block first on reads what a read from block 0 reads there."""

    @given(case=range_cases(), key=st.binary(max_size=8))
    @example(case=range_case(1, 64, 48, (2, 4), 21, 40), key=b"k")  # first in the middle of a block row
    @example(case=range_case(2, 64, 48, (2, 4), 32, 19), key=b"k")  # first at the start of a block row
    @example(case=range_case(3, 62, 47, (6, 4), 105, 0), key=b"k")  # no blocks, at first = capacity
    def test_a_range_equals_the_slice_of_a_read_from_block_zero(self, case, key):
        carrier, params, first, count = case
        q, bits = detect_blocks(carrier, key, count, params, first)
        q_all, bits_all = detect_blocks(carrier, key, first + count, params)
        assert list(map(float.hex, q)) == list(map(float.hex, q_all[first:]))
        assert bits.tolist() == bits_all[first:].tolist()

    def test_a_negative_first_block_is_refused(self):
        carrier, params, _, _ = range_case(4, 24, 16, (8, 8), 0, 0)
        with pytest.raises(ValueError, match=r"^first block must be non-negative, got -1$"):
            detect_blocks(carrier, b"k", 1, params, -1)

    @pytest.mark.parametrize("first, count", [(4, 3), (7, 0), (0, 7)])
    def test_a_range_past_the_capacity_names_first_plus_count_blocks(self, first, count):
        carrier, params, _, _ = range_case(5, 24, 16, (8, 8), 0, 0)  # 6 blocks of 8x8
        with pytest.raises(CarrierTooSmallError, match=r"^message needs 7 blocks of 8x8, carrier has 6$"):
            detect_blocks(carrier, b"k", count, params, first)


# The numpy block kernel that pestego ran before its standard-library one,
# kept here as a reference: q must equal it exactly and stego pixels must
# match it byte for byte.  Blocks are rows of an (n_blocks, block_len)
# array, laid out C half first for detection.

_SQUARES = np.arange(256, dtype=np.uint16) ** 2


def _reference_blocks(grid: np.ndarray, params: StatParams) -> np.ndarray:
    """View of the full blocks as (block row, block col, rows, cols)."""
    bh, bw = params.block_rows, params.block_cols
    rows, cols = grid.shape[0] // bh, grid.shape[1] // bw
    return grid[: rows * bh, : cols * bw].reshape(rows, bh, cols, bw).transpose(0, 2, 1, 3)


def _reference_mask(key: bytes, params: StatParams) -> np.ndarray:
    return np.frombuffer(derive_pattern(key, params.block_len).bits, dtype=np.uint8).astype(bool)


def reference_embed(carrier: Carrier, key: bytes, message: tuple[int, ...], params: StatParams) -> bytes:
    grid = pixel_grid(carrier).copy()
    blocks = _reference_blocks(grid, params)
    marked = np.flatnonzero(np.array(message, dtype=np.uint8))
    at = np.divmod(marked, max(blocks.shape[1], 1))
    rows = blocks[at].reshape(len(marked), params.block_len)
    step = min(params.k, 255)
    raised = np.where(_reference_mask(key, params), np.minimum(rows, 255 - step) + step, rows)
    blocks[at] = raised.reshape(-1, params.block_rows, params.block_cols)
    return grid.tobytes()


def reference_q(carrier: Carrier, key: bytes, bit_count: int, params: StatParams) -> np.ndarray:
    r, c = np.divmod(np.argsort(~_reference_mask(key, params), kind="stable"), params.block_cols)
    blocks = _reference_blocks(pixel_grid(carrier), params)
    block_rows = -(-bit_count // max(blocks.shape[1], 1))
    rows = blocks[:block_rows, :, r, c].reshape(-1, params.block_len)[:bit_count]
    half = params.block_len // 2
    c_half, d_half = rows[:, :half], rows[:, half:]
    sum_c = c_half.sum(axis=1, dtype=np.int64)
    sum_d = d_half.sum(axis=1, dtype=np.int64)
    spread_c = half * _SQUARES[c_half].sum(axis=1, dtype=np.int64) - sum_c * sum_c
    spread_d = half * _SQUARES[d_half].sum(axis=1, dtype=np.int64) - sum_d * sum_d
    spread, diff = spread_c + spread_d, sum_c - sum_d
    with np.errstate(divide="ignore", invalid="ignore"):
        q = diff * math.sqrt(half - 1) / np.sqrt(spread)
    return np.where(spread > 0, q, np.where(diff == 0, 0.0, np.copysign(np.inf, diff)))


def check_against_reference(carrier: Carrier, params: StatParams, key: bytes, message: tuple[int, ...], bit_count: int):
    stego = embed_message(carrier, key, MessageLayout(message), params)
    assert stego.pixels == reference_embed(carrier, key, message, params)
    q, bits = detect_blocks(stego, key, bit_count, params)
    expected = reference_q(stego, key, bit_count, params)
    assert [x.hex() for x in q] == [x.hex() for x in expected.tolist()]
    assert bits.tolist() == (expected > params.z_alpha).astype(int).tolist()


def _wide_block_carrier(block_cols: int) -> Carrier:
    """Two 2 x block_cols blocks: C pixels at 255 and D pixels at 254 or 255, then noise."""
    rng = np.random.default_rng(block_cols)
    mask = _reference_mask(b"k", StatParams(2, block_cols)).reshape(2, block_cols)
    high = np.where(mask, 255, rng.integers(254, 256, mask.shape)).astype(np.uint8)
    return Carrier(block_cols, 4, np.vstack([high, rng.integers(0, 256, mask.shape, dtype=np.uint8)]).tobytes())


class TestNumpyReference:
    """The standard-library kernel against the numpy kernel it replaced: equal q, equal bytes."""

    @given(case=kernel_cases(), data=st.data())
    def test_matches_numpy_kernel(self, case, data):
        carrier, params, key = case
        n = block_capacity(carrier, params)
        message = tuple(data.draw(st.lists(st.integers(0, 1), max_size=n)))
        check_against_reference(carrier, params, key, message, data.draw(st.integers(0, n)))

    @pytest.mark.parametrize(
        "carrier, params, message, bit_count",
        [
            # h * 255**2 > 2**32: even one half's square sum passes 32 bits
            (_wide_block_carrier(66054), StatParams(2, 66054, k=3), (1, 1), 2),
            # block_len * 255**2 just under 2**32 and 2**24: square sums that nearly fill 4 and 3 bytes
            (_wide_block_carrier(33025), StatParams(2, 33025, k=3), (0, 1), 2),
            (_wide_block_carrier(129), StatParams(2, 129, k=3), (1, 0), 2),
            (uniform_carrier(np.random.default_rng(20), 24, 16, high=8), StatParams(4, 4, k=255), (1,) * 24, 24),
            (Carrier(16, 8, bytes(range(128, 256))), StatParams(4, 4, k=300), (1, 0, 1, 1, 1, 1, 0, 1), 8),
            # a partial last block row: 5 blocks per row, 7 bits
            (uniform_carrier(np.random.default_rng(21), 22, 13), StatParams(6, 4), (1, 0, 1, 1, 0, 1, 1), 7),
            # narrower than one block: no block at all
            (uniform_carrier(np.random.default_rng(22), 3, 40), StatParams(4, 4), (), 0),
            (uniform_carrier(np.random.default_rng(23), 32, 32), StatParams(), (1, 1, 0, 1), 0),
        ],
        ids=[
            "sums-past-2**32", "sums-under-2**32", "sums-under-2**24",
            "k-255", "k-300", "partial-block-row", "narrow-carrier", "zero-bits",
        ],
    )
    def test_explicit_cases(self, carrier, params, message, bit_count):
        check_against_reference(carrier, params, b"k", message, bit_count)


class TestDistributions:
    """Seeded statistical invariants of the detector."""

    def test_null_calibration(self):
        rng = np.random.default_rng(1001)
        blocks = [rng.integers(0, 256, 64, dtype=np.uint8).tobytes() for _ in range(2000)]
        qs = np.array([detect_block(values, (8, 8), b"calibration")[0] for values in blocks])
        assert -0.1 <= qs.mean() <= 0.1
        assert 0.8 <= qs.var(ddof=1) <= 1.25
        for alpha in (0.05, 0.01):
            rate = float(np.mean(qs > StatParams(alpha=alpha).z_alpha))
            assert 0.5 * alpha <= rate <= 1.5 * alpha, (alpha, rate)

    def test_mean_shift_at_k1(self):
        rng = np.random.default_rng(1002)
        clean, marked = [], []
        for _ in range(1000):
            values = rng.integers(0, 32, 64, dtype=np.uint8).tobytes()
            clean.append(detect_block(values, (8, 8), b"shift")[0])
            marked.append(detect_block(embed_block(values, (8, 8), b"shift", 1, 1), (8, 8), b"shift")[0])
        assert np.mean(marked) - np.mean(clean) > 0

    def test_wrong_key_gives_no_signal(self):
        rng = np.random.default_rng(1003)
        hits_right = hits_wrong = 0
        q_wrong_total = 0.0
        trials_per_key = 40
        wrong_keys = [f"wrong-{i}".encode() for i in range(50)]
        for wrong_key in wrong_keys:
            for _ in range(trials_per_key):
                values = rng.integers(0, 16, 64, dtype=np.uint8).tobytes()
                marked = embed_block(values, (8, 8), b"right-key", 10, 1)
                hits_right += detect_block(marked, (8, 8), b"right-key")[1]
                q, bit = detect_block(marked, (8, 8), wrong_key)
                hits_wrong += bit
                q_wrong_total += q
        n = len(wrong_keys) * trials_per_key
        assert hits_right / n >= 0.99
        # pooled over many wrong keys the statistic carries no mark signal
        assert hits_wrong / n < 0.3
        assert abs(q_wrong_total / n) < 0.3
