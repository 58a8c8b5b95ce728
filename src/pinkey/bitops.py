"""Small helpers for bit vectors stored as uint8 numpy arrays."""

from __future__ import annotations

import operator

import numpy as np


def as_bits(x) -> np.ndarray:
    """A bool or integer array or sequence of 0/1 values as a flat uint8
    array; a float, string or object input, or any value other than 0 or
    1, raises ``ValueError``.  A bool array is never scanned."""
    arr = np.asarray(x)
    kind = arr.dtype.kind if arr.size else "b"
    if kind not in "biu":
        raise ValueError(f"bit vector must be bool or integer, "
                         f"got dtype {arr.dtype}")
    if kind in "iu" and (arr.max() > 1 or kind == "i" and arr.min() < 0):
        raise ValueError("bit vector contains values other than 0/1")
    return arr.astype(np.uint8, copy=False).ravel()


def bits_to_int(bits) -> int:
    """Big-endian bit vector to a Python int (empty vector -> 0)."""
    arr = as_bits(bits)
    # packbits zero-pads the last byte on the right; shift the pad out.
    return int.from_bytes(np.packbits(arr).tobytes(), "big") >> (-arr.size % 8)


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Python int to a big-endian bit vector of the given width."""
    value = operator.index(value)
    if value < 0 or value >= (1 << width):
        raise ValueError(f"{value} does not fit in {width} bits")
    nbytes = (width + 7) // 8
    raw = np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8)
    return np.unpackbits(raw)[8 * nbytes - width:]


def bits_to_hex(bits) -> str:
    """Hex encoding of a bit vector, zero-padded on the right to a byte."""
    arr = as_bits(bits)
    if arr.size == 0:
        return ""
    return np.packbits(arr).tobytes().hex()
