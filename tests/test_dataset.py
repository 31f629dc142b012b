import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pmichannel.dataset import ChannelDataset, DatasetFormatError, read_dataset, write_dataset


def test_round_trip_exact(tmp_path, rng):
    chans = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    covs = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    data = ChannelDataset(channels=chans, covariances=covs)
    path = tmp_path / "x.bin"
    write_dataset(path, data)
    back = read_dataset(path)
    np.testing.assert_array_equal(back.channels, chans)
    np.testing.assert_array_equal(back.covariances, covs)


def test_round_trip_without_covariance(tmp_path, rng):
    chans = rng.standard_normal((2, 3, 1)) + 1j * rng.standard_normal((2, 3, 1))
    path = tmp_path / "x.bin"
    write_dataset(path, ChannelDataset(channels=chans))
    back = read_dataset(path)
    assert back.covariances is None
    np.testing.assert_array_equal(back.channels, chans)


def test_hand_encoded_fixture(tmp_path):
    # one sample, d=2, n_rx=1, entries (1+2j, 3-4j)
    payload = struct.pack("<8sIIIIB", b"PMICH01\x00", 1, 2, 1, 1, 0)
    payload += struct.pack("<4d", 1.0, 2.0, 3.0, -4.0)
    path = tmp_path / "hand.bin"
    path.write_bytes(payload)
    data = read_dataset(path)
    assert data.n_samples == 1 and data.d == 2 and data.n_rx == 1
    np.testing.assert_array_equal(data.channels[0, :, 0], [1 + 2j, 3 - 4j])


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(DatasetFormatError, match="offset 0"):
        read_dataset(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<8sIIIIB", b"PMICH01\x00", 9, 1, 1, 0, 0))
    with pytest.raises(DatasetFormatError, match="offset 8"):
        read_dataset(path)


def test_truncation_names_offset(tmp_path):
    header = struct.pack("<8sIIIIB", b"PMICH01\x00", 1, 2, 1, 1, 0)
    path = tmp_path / "short.bin"
    path.write_bytes(header + b"\x00" * 8)  # needs 32 payload bytes
    with pytest.raises(DatasetFormatError, match=f"offset {len(header)}"):
        read_dataset(path)


def test_trailing_bytes_rejected(tmp_path):
    payload = struct.pack("<8sIIIIB", b"PMICH01\x00", 1, 1, 1, 1, 0)
    payload += struct.pack("<2d", 0.5, 0.0) + b"xx"
    path = tmp_path / "trail.bin"
    path.write_bytes(payload)
    with pytest.raises(DatasetFormatError, match="trailing"):
        read_dataset(path)


def test_non_finite_payload_names_offset(tmp_path):
    header = struct.pack("<8sIIIIB", b"PMICH01\x00", 1, 2, 1, 1, 0)
    path = tmp_path / "nan.bin"
    path.write_bytes(header + struct.pack("<4d", 1.0, 2.0, 3.0, float("nan")))
    with pytest.raises(DatasetFormatError, match=f"offset {len(header) + 24}"):
        read_dataset(path)


def test_covariance_flag_must_be_0_or_1(tmp_path):
    payload = struct.pack("<8sIIIIB", b"PMICH01\x00", 1, 1, 1, 1, 5)
    path = tmp_path / "flag.bin"
    path.write_bytes(payload + struct.pack("<4d", 1.0, 0.0, 1.0, 0.0))
    with pytest.raises(DatasetFormatError, match="offset 24"):
        read_dataset(path)


@pytest.mark.parametrize("dims, offset", [((0, 1, 3), 12), ((2, 0, 3), 16), ((2, 1, 0), 20)])
def test_zero_dimension_rejected(tmp_path, dims, offset):
    path = tmp_path / "zero.bin"
    path.write_bytes(struct.pack("<8sIIIIB", b"PMICH01\x00", 1, *dims, 0))
    with pytest.raises(DatasetFormatError, match=f"offset {offset}"):
        read_dataset(path)


_FUZZ_RNG = np.random.default_rng(3)
_FUZZ_DATA = ChannelDataset(
    channels=_FUZZ_RNG.standard_normal((2, 2, 1)) + 1j * _FUZZ_RNG.standard_normal((2, 2, 1)),
    covariances=_FUZZ_RNG.standard_normal((2, 2, 2)) + 1j * _FUZZ_RNG.standard_normal((2, 2, 2)),
)


_PAYLOAD_VALUES = st.sampled_from([float("nan"), float("inf"), float("-inf")]) | st.floats()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    keep=st.integers(0, 300),
    flips=st.lists(st.tuples(st.integers(0, 299), st.integers(1, 255)), max_size=3),
    values=st.lists(st.tuples(st.integers(0, 23), _PAYLOAD_VALUES), max_size=2),
)
def test_fuzzed_file_parses_or_raises_format_error(tmp_path, keep, flips, values):
    # Truncations, byte flips and arbitrary float64 payload values (NaN and
    # infinities included) in a valid 217-byte file (25-byte header, 24
    # doubles) either parse or raise DatasetFormatError; nothing else escapes.
    path = tmp_path / "fuzz.bin"
    write_dataset(path, _FUZZ_DATA)
    buf = bytearray(path.read_bytes())
    for slot, value in values:
        struct.pack_into("<d", buf, 25 + 8 * slot, value)
    for pos, mask in flips:
        buf[pos % len(buf)] ^= mask
    path.write_bytes(bytes(buf[:keep]))
    try:
        read_dataset(path)
    except DatasetFormatError:
        pass


def test_shape_validation():
    with pytest.raises(ValueError):
        ChannelDataset(channels=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ChannelDataset(channels=np.zeros((2, 3, 1)), covariances=np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        ChannelDataset(channels=np.full((1, 2, 1), np.nan))
