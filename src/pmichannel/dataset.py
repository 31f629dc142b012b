"""Binary channel-dataset format for experiment ingestion.

Layout (little endian):
  8 bytes   magic "PMICH01\\0"
  u32       version (1)
  u32       d        transmit dimension
  u32       n_rx     receive antennas
  u32       n_samples
  u8        has_covariance
  then n_samples blocks of d*n_rx complex values, each stored as two
  float64 (re, im), row major; if has_covariance, n_samples further blocks
  of d*d complex values holding the per-sample uplink covariance in full.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["ChannelDataset", "DatasetFormatError", "read_dataset", "write_dataset"]

MAGIC = b"PMICH01\x00"
_HEADER = struct.Struct("<8sIIIIB")


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message names the failing byte offset."""


@dataclass(frozen=True)
class ChannelDataset:
    """In-memory dataset: channels (M, d, n_rx) and optional covariances (M, d, d)."""

    channels: np.ndarray
    covariances: Optional[np.ndarray] = None

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=complex)
        if ch.ndim != 3:
            raise ValueError("channels must be (n_samples, d, n_rx)")
        if not np.all(np.isfinite(ch)):
            raise ValueError("channel entries must be finite")
        object.__setattr__(self, "channels", ch)
        if self.covariances is not None:
            cov = np.asarray(self.covariances, dtype=complex)
            if cov.shape != (ch.shape[0], ch.shape[1], ch.shape[1]):
                raise ValueError("covariances must be (n_samples, d, d)")
            if not np.all(np.isfinite(cov)):
                raise ValueError("covariance entries must be finite")
            object.__setattr__(self, "covariances", cov)

    @property
    def n_samples(self) -> int:
        return self.channels.shape[0]

    @property
    def d(self) -> int:
        return self.channels.shape[1]

    @property
    def n_rx(self) -> int:
        return self.channels.shape[2]


def _interleave(a: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(a, dtype=complex).ravel()
    out = np.empty(2 * flat.size, dtype="<f8")
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.tobytes()


def write_dataset(path, data: ChannelDataset) -> None:
    """Serialize a dataset; the round trip through ``read_dataset`` is exact."""
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                MAGIC,
                1,
                data.d,
                data.n_rx,
                data.n_samples,
                1 if data.covariances is not None else 0,
            )
        )
        fh.write(_interleave(data.channels))
        if data.covariances is not None:
            fh.write(_interleave(data.covariances))


def _read_block(buf: bytes, offset: int, count: int, shape: tuple) -> tuple[np.ndarray, int]:
    nbytes = 16 * count
    if len(buf) < offset + nbytes:
        raise DatasetFormatError(
            f"truncated dataset: expected {nbytes} bytes at offset {offset}, "
            f"file ends at {len(buf)}"
        )
    raw = np.frombuffer(buf, dtype="<f8", count=2 * count, offset=offset)
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise DatasetFormatError(f"non-finite value {raw[bad[0]]} at offset {offset + 8 * bad[0]}")
    return (raw[0::2] + 1j * raw[1::2]).reshape(shape), offset + nbytes


def read_dataset(path) -> ChannelDataset:
    """Parse a dataset file; every malformation raises ``DatasetFormatError``."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _HEADER.size:
        raise DatasetFormatError(f"truncated header: file has {len(buf)} bytes at offset 0")
    magic, version, d, n_rx, n_samples, has_cov = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise DatasetFormatError(f"bad magic {magic!r} at offset 0")
    if version != 1:
        raise DatasetFormatError(f"unsupported version {version} at offset 8")
    for name, value, at in (("d", d, 12), ("n_rx", n_rx, 16), ("n_samples", n_samples, 20)):
        if value == 0:
            raise DatasetFormatError(f"{name} = 0 at offset {at}")
    if has_cov > 1:
        raise DatasetFormatError(f"has_covariance byte {has_cov} is not 0 or 1 at offset 24")
    offset = _HEADER.size
    channels, offset = _read_block(buf, offset, n_samples * d * n_rx, (n_samples, d, n_rx))
    covariances = None
    if has_cov:
        covariances, offset = _read_block(buf, offset, n_samples * d * d, (n_samples, d, d))
    if offset != len(buf):
        raise DatasetFormatError(f"trailing {len(buf) - offset} bytes at offset {offset}")
    return ChannelDataset(channels=channels, covariances=covariances)
