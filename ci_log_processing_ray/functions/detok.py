"""Zero-copy-ish detokenization: list<int32> UTF-8 byte tokens -> string.

The token-sequence table stores each log line as its UTF-8 bytes widened
to int32 (BASELINE.json input_hint).  Decoding re-uses the list offsets
buffer directly as the string offsets buffer; the only data movement is
the vectorized int32 -> uint8 narrowing cast of the values child.  The
original ``tokens`` column is carried through untouched (per-row
token-array equality is the end-to-end invariant).

The string kernels next to it read the same buffers: ``halves`` (both
pieces of a split-once), ``string_bytes`` (a string array's data as a
uint8 view) and ``non_ascii_rows`` (a block-level ASCII test before any
per-row one).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def tokens_to_text(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Decode a list<int32> byte-token column to a string array.

    Handles sliced/offset list arrays by rebasing the offsets buffer; the
    fast path (whole-block arrays, offset 0) shares buffers outright.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr: pa.ListArray = col
    if arr.null_count:
        raise ValueError("tokens column must not contain nulls")

    offs = arr.offsets  # len(arr)+1 int32 values indexing into arr.values
    off0 = offs[0].as_py()
    if offs.offset != 0 or off0 != 0:
        off_np = offs.to_numpy().astype(np.int32, copy=True)
        values = arr.values.slice(off0, int(off_np[-1]) - off0)
        off_np -= off0
        offs = pa.array(off_np, type=pa.int32())
    else:
        values = arr.values

    data_u8 = pc.cast(values, pa.uint8())  # checked: raises if token > 255
    return pa.Array.from_buffers(
        pa.string(),
        len(arr),
        [None, offs.buffers()[1], data_u8.buffers()[1]],
    )


def halves(parts: pa.ListArray) -> tuple[pa.Array, pa.Array]:
    """Both pieces of each row of a ``max_splits=1`` split, null where
    the row is null or held no separator."""
    offsets = parts.offsets.to_numpy()
    first = offsets[:-1]
    missing = np.diff(offsets) != 2
    values = parts.values
    return (values.take(pa.array(first, mask=missing)),
            values.take(pa.array(first + 1, mask=missing)))


def string_bytes(arr: pa.Array) -> np.ndarray:
    """The UTF-8 bytes of a string array's rows, concatenated: a uint8
    view of its data buffer, no copy.  Null rows may add bytes; a test
    over the view is a block-level superset test."""
    if len(arr) == 0 or arr.buffers()[2] is None:
        return np.empty(0, dtype=np.uint8)
    width = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=width)
    lo, hi = offs[arr.offset], offs[arr.offset + len(arr)]
    return np.frombuffer(arr.buffers()[2], dtype=np.uint8)[lo:hi]


def non_ascii_rows(lines: pa.Array) -> np.ndarray | None:
    """Rows holding a byte >= 0x80, or None when no row does: one max
    over the data buffer decides a block of ASCII lines, and only a
    block with such a byte pays for the per-row test."""
    data = string_bytes(lines)
    if not len(data) or data.max() < 0x80:
        return None
    return ~pc.fill_null(pc.string_is_ascii(lines), True).to_numpy(
        zero_copy_only=False)
