import numpy as np
import pytest

from pinkey.bitops import bits_to_int, int_to_bits

WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 1000]


def _bits_to_int_oracle(bits):
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def _int_to_bits_oracle(value, width):
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.uint8)


def _values(width, rng):
    top = (1 << width) - 1
    picks = {0, top, 1 & top, top >> 1, (1 << (width - 1)) if width else 0}
    picks.update(int.from_bytes(rng.bytes((width + 7) // 8), "big") & top
                 for _ in range(5))
    return sorted(picks)


@pytest.mark.parametrize("width", WIDTHS)
def test_int_to_bits_equals_loop(width):
    rng = np.random.Generator(np.random.PCG64(width))
    for value in _values(width, rng):
        bits = int_to_bits(value, width)
        expected = _int_to_bits_oracle(value, width)
        assert bits.dtype == np.uint8 and bits.shape == (width,)
        assert (bits == expected).all()


@pytest.mark.parametrize("width", WIDTHS)
def test_bits_to_int_equals_loop(width):
    rng = np.random.Generator(np.random.PCG64(width + 1))
    for _ in range(8):
        bits = rng.integers(0, 2, width).astype(np.uint8)
        value = bits_to_int(bits)
        assert type(value) is int
        assert value == _bits_to_int_oracle(bits)
        assert (int_to_bits(value, width) == bits).all()


def test_bits_to_int_accepts_lists_and_empty():
    assert bits_to_int([]) == 0
    assert bits_to_int([1, 0, 1, 1]) == 0b1011
    assert bits_to_int([[1], [0]]) == 0b10


@pytest.mark.parametrize("value,width", [(-1, 4), (16, 4), (1, 0),
                                         (1 << 64, 64)])
def test_int_to_bits_rejects_out_of_range(value, width):
    with pytest.raises(ValueError):
        int_to_bits(value, width)


def test_bits_to_int_rejects_non_bits():
    with pytest.raises(ValueError):
        bits_to_int([0, 2, 1])
