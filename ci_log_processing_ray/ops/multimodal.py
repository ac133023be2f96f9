"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Images/audio/video are carried as ``binary`` columns with sidecar
metadata columns; decode / feature-extract stages are actor pools sized
for large rows (small batch_size so batch x concurrency fits worker
heaps).  The actual codec libraries (PIL / torchaudio / av) are NOT
available in this environment, so the decode kernel is gated behind an
import-try with a clearly-marked deterministic fallback -- the Ray-side
plumbing (schema, actor signature, batching, output layout) is real and
tested.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

import ray.data

IMAGE_META_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("n_bytes", pa.int64()),
    ("mean_intensity", pa.float64()),
])


def encode_fake_image(media_id: int, width: int, height: int, seed: int = 0) -> bytes:
    """Deterministic stand-in payload: 8-byte header (width, height) +
    pseudo-pixel bytes.  Lets the decode plumbing be exercised without
    codec libraries."""
    rng = np.random.default_rng(seed + media_id)
    pixels = rng.integers(0, 256, size=width * height, dtype=np.uint8)
    return struct.pack("<ii", width, height) + pixels.tobytes()


def encode_linear_image(media_id: int, width: int, height: int) -> bytes:
    """SQL-reproducible stand-in payload: same 8-byte header layout as
    :func:`encode_fake_image`, but pixel (y, x) = (id*7919 + y*131 +
    x*17) % 256 -- an affine formula DuckDB can recompute, so the
    decode / resize / phash *outputs* (not just their row geometry)
    become oracle-checkable (driver oracles in __ray_entry__)."""
    y = np.arange(height, dtype=np.int64)[:, None]
    x = np.arange(width, dtype=np.int64)[None, :]
    px = ((media_id * 7919 + y * 131 + x * 17) % 256).astype(np.uint8)
    return struct.pack("<ii", width, height) + px.tobytes()


def encode_linear_video(media_id: int, n_frames: int,
                        frame_bytes: int = 256) -> bytes:
    """SQL-reproducible stand-in container: same header layout as
    :func:`encode_fake_video`, byte j of frame f = (id*104729 + f*257
    + j*31) % 256."""
    f = np.arange(n_frames, dtype=np.int64)[:, None]
    j = np.arange(frame_bytes, dtype=np.int64)[None, :]
    body = ((media_id * 104729 + f * 257 + j * 31) % 256).astype(np.uint8)
    return struct.pack("<ii", n_frames, frame_bytes) + body.tobytes()


class ImageDecoder:
    """Actor-pool decode stage: binary column -> metadata + features.

    Loads the codec ONCE per actor in __init__ (the stateful-stage rule);
    falls back to the deterministic header parser when PIL is absent.
    """

    def __init__(self, payload_col: str = "payload", id_col: str = "media_id"):
        self.payload_col = payload_col
        self.id_col = id_col
        try:
            from PIL import Image  # noqa: F401

            self._pil = Image
        except ImportError:
            self._pil = None  # deterministic fallback decoder

    def _decode(self, raw: bytes) -> tuple[int, int, float]:
        if self._pil is not None:
            import io

            img = self._pil.open(io.BytesIO(raw)).convert("L")
            arr = np.asarray(img)
            return img.width, img.height, float(arr.mean())
        width, height = struct.unpack_from("<ii", raw, 0)
        pixels = np.frombuffer(raw, dtype=np.uint8, offset=8)
        return width, height, float(pixels.mean())

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, widths, heights, nbytes, means = [], [], [], [], []
        for media_id, raw in zip(batch[self.id_col].to_pylist(),
                                 batch[self.payload_col].to_pylist()):
            w, h, m = self._decode(raw)
            ids.append(media_id)
            widths.append(w)
            heights.append(h)
            nbytes.append(len(raw))
            means.append(m)
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "n_bytes": pa.array(nbytes, type=pa.int64()),
            "mean_intensity": pa.array(means, type=pa.float64()),
        }, schema=IMAGE_META_SCHEMA)


def decode_images(
    ds: ray.data.Dataset,
    *,
    payload_col: str = "payload",
    id_col: str = "media_id",
    concurrency=(1, 4),
    batch_size: int = 64,  # small: payload rows are large
) -> ray.data.Dataset:
    return ds.map_batches(
        ImageDecoder, fn_constructor_args=(payload_col, id_col),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


class ImageResizer:
    """Actor-pool resize stage: nearest-neighbor downscale of the raw
    payload (numpy fancy-indexing -- the real resize math; a codec lib
    would only change the decode step).  Output keeps the binary payload
    layout (8-byte header + pixels) so stages compose."""

    def __init__(self, out_w: int, out_h: int,
                 payload_col: str = "payload", id_col: str = "media_id"):
        self.out_w, self.out_h = out_w, out_h
        self.payload_col, self.id_col = payload_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, payloads, means = [], [], []
        for media_id, raw in zip(batch[self.id_col].to_pylist(),
                                 batch[self.payload_col].to_pylist()):
            w, h = struct.unpack_from("<ii", raw, 0)
            px = np.frombuffer(raw, dtype=np.uint8, offset=8).reshape(h, w)
            yi = (np.arange(self.out_h) * h) // self.out_h
            xi = (np.arange(self.out_w) * w) // self.out_w
            small = px[yi][:, xi]
            ids.append(media_id)
            payloads.append(struct.pack("<ii", self.out_w, self.out_h)
                            + small.tobytes())
            means.append(float(small.mean()))
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
            "width": pa.array([self.out_w] * len(ids), type=pa.int32()),
            "height": pa.array([self.out_h] * len(ids), type=pa.int32()),
            "mean_intensity": pa.array(means, type=pa.float64()),
        })


def resize_images(
    ds: ray.data.Dataset, out_w: int, out_h: int, *,
    payload_col: str = "payload", id_col: str = "media_id",
    concurrency=(1, 4), batch_size: int = 64,
) -> ray.data.Dataset:
    return ds.map_batches(
        ImageResizer, fn_constructor_args=(out_w, out_h, payload_col, id_col),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def encode_fake_video(media_id: int, n_frames: int, frame_bytes: int = 256,
                      seed: int = 0) -> bytes:
    """Deterministic stand-in video container: 8-byte header
    (n_frames, frame_bytes) + concatenated pseudo-frames."""
    rng = np.random.default_rng(seed * 1_000_003 + media_id)
    body = rng.integers(0, 256, size=n_frames * frame_bytes,
                        dtype=np.uint8).tobytes()
    return struct.pack("<ii", n_frames, frame_bytes) + body


class VideoFrameSampler:
    """Actor-pool frame sampler: every ``stride``-th frame's index +
    digest + mean byte value.  The container parse is the deterministic
    stand-in (real codecs are NOT available in this environment -- with
    PyAV installed only ``_frames`` would change); the Ray plumbing
    (binary column in, exploded frame rows out, small batches) is real.
    """

    def __init__(self, stride: int = 4,
                 payload_col: str = "payload", id_col: str = "media_id"):
        self.stride = stride
        self.payload_col, self.id_col = payload_col, id_col

    def _frames(self, raw: bytes):
        n_frames, frame_bytes = struct.unpack_from("<ii", raw, 0)
        for f in range(0, n_frames, self.stride):
            yield f, raw[8 + f * frame_bytes: 8 + (f + 1) * frame_bytes]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frame_nos, digests, means = [], [], [], []
        for media_id, raw in zip(batch[self.id_col].to_pylist(),
                                 batch[self.payload_col].to_pylist()):
            for f, chunk in self._frames(raw):
                ids.append(media_id)
                frame_nos.append(f)
                digests.append(hashlib.sha1(chunk).hexdigest()[:16])
                means.append(float(np.frombuffer(chunk, dtype=np.uint8).mean()))
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "frame_no": pa.array(frame_nos, type=pa.int32()),
            "frame_digest": pa.array(digests, type=pa.string()),
            "frame_mean": pa.array(means, type=pa.float64()),
        })


def sample_video_frames(
    ds: ray.data.Dataset, stride: int = 4, *,
    payload_col: str = "payload", id_col: str = "media_id",
    concurrency=(1, 4), batch_size: int = 32,
) -> ray.data.Dataset:
    return ds.map_batches(
        VideoFrameSampler, fn_constructor_args=(stride, payload_col, id_col),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


class PerceptualHasher:
    """Actor-pool stage: 64-bit average-hash (aHash) per image payload.

    Classic perceptual fingerprint: downsample to an 8x8 grid of block
    means, threshold at the grid mean, pack 64 bits MSB-first.  Robust
    to mild noise/re-encoding, so identical-looking images collide --
    the bucket key for image near-dup.  Uses the same decode fallback
    as ImageDecoder (header + raw pixels) when codec libs are absent.
    """

    def __init__(self, payload_col: str = "payload",
                 id_col: str = "media_id", grid: int = 8):
        self.payload_col, self.id_col, self.grid = payload_col, id_col, grid

    def _phash(self, raw: bytes) -> int:
        width, height = struct.unpack_from("<ii", raw, 0)
        px = np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.float64)
        px = px[:width * height].reshape(height, width)
        g = self.grid
        # block means via two reduceat passes (any width/height, no
        # divisibility requirement)
        ys = (np.arange(g) * height) // g
        xs = (np.arange(g) * width) // g
        rows = np.add.reduceat(px, ys, axis=0)
        cells = np.add.reduceat(rows, xs, axis=1)
        ylen = np.diff(np.append(ys, height))[:, None]
        xlen = np.diff(np.append(xs, width))[None, :]
        means = cells / (ylen * xlen)
        bits = (means > means.mean()).reshape(-1)
        return int(np.packbits(bits).view(">u8")[0])

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, hashes = [], []
        for media_id, raw in zip(batch[self.id_col].to_pylist(),
                                 batch[self.payload_col].to_pylist()):
            ids.append(media_id)
            hashes.append(self._phash(raw))
        return pa.table({
            self.id_col: pa.array(ids, type=pa.int64()),
            "phash": pa.array(np.array(hashes, dtype=np.uint64).view(
                np.int64)),
        })


def phash_clusters(
    ds: ray.data.Dataset,
    *,
    payload_col: str = "payload",
    id_col: str = "media_id",
    concurrency=(1, 4),
    batch_size: int = 64,
) -> ray.data.Dataset:
    """Image near-dup buckets: (id, phash, bucket_size) -- payloads
    hash in an actor pool (small batches, large rows), then ONE
    8-byte-key shuffle groups identical perceptual hashes; the payload
    never moves after the hash stage."""
    from ci_log_processing_ray.ops.window import (attach_group_sizes,
                                                  bucketed_groups)

    hashed = ds.map_batches(
        PerceptualHasher, fn_constructor_args=(payload_col, id_col),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)

    def size_per_hash(t: pa.Table) -> pa.Table:
        return attach_group_sizes(t, "phash", id_col)

    return bucketed_groups(hashed, "phash", size_per_hash,
                           kernel_format="pyarrow")
