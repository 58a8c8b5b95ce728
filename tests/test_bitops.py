import numpy as np
import pytest

from pinkey.bitops import as_bits, bits_to_int

WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 1000]


def _bits_to_int_oracle(bits):
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


@pytest.mark.parametrize("width", WIDTHS)
def test_bits_to_int_equals_loop(width):
    rng = np.random.Generator(np.random.PCG64(width + 1))
    for _ in range(8):
        bits = rng.integers(0, 2, width).astype(np.uint8)
        value = bits_to_int(bits)
        assert type(value) is int
        assert value == _bits_to_int_oracle(bits)


def test_bits_to_int_accepts_lists_and_empty():
    assert bits_to_int([]) == 0
    assert bits_to_int([1, 0, 1, 1]) == 0b1011
    assert bits_to_int([[1], [0]]) == 0b10


def test_bits_to_int_rejects_non_bits():
    with pytest.raises(ValueError):
        bits_to_int([0, 2, 1])


@pytest.mark.parametrize("bits", [
    [0.5, 1.7], [0.0, 1.0], np.array([0.9]), ["1", "0"], np.array(["1"]),
    np.array([0, 1], dtype=object), [-1], np.array([1, -1]), [0, 2],
    np.array([1, 256], dtype=np.int64), [1 << 70]],
    ids=["floats", "integral_floats", "float_array", "strings",
         "string_array", "object_array", "negative", "negative_array",
         "two", "wraps_to_zero", "huge"])
def test_as_bits_rejects_non_bits(bits):
    # A uint8 cast would read most of these as bits.
    with pytest.raises(ValueError):
        as_bits(bits)


@pytest.mark.parametrize("bits,expected", [
    ([1, 0, 1], [1, 0, 1]), ([True, False], [1, 0]),
    (np.array([True, False]), [1, 0]), (np.array([[1], [0]]), [1, 0]),
    (np.array([0, 1], dtype=np.int8), [0, 1]),
    (np.array([1, 1], dtype=np.uint64), [1, 1]), (1, [1]), ([], [])])
def test_as_bits_accepts_bool_and_integer_input(bits, expected):
    arr = as_bits(bits)
    assert arr.dtype == np.uint8 and arr.tolist() == expected


def test_as_bits_does_not_copy_a_uint8_array():
    bits = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert np.shares_memory(as_bits(bits), bits)
