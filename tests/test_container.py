"""Round-trip tests for the grid container file format."""

import numpy as np
import pytest

from channel_cntk.container import (
    DatasetRecord,
    load_dataset,
    load_estimates,
    save_dataset,
    save_estimates,
)


def _random_grid(rng, M=7, N=5):
    return rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))


def test_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    mask = rng.random((7, 5)) < 0.4
    records = [DatasetRecord(_random_grid(rng), _random_grid(rng),
                             _random_grid(rng), mask) for _ in range(3)]
    manifest = {"seed": 9, "snr_db": 20.0, "pattern": {"sc_spacing": 2}}
    path = tmp_path / "data.bin"
    save_dataset(path, manifest, records)
    loaded_manifest, loaded = load_dataset(path)
    assert loaded_manifest == manifest
    assert len(loaded) == 3
    for orig, back in zip(records, loaded):
        assert np.array_equal(orig.h_true, back.h_true)
        assert np.array_equal(orig.tx, back.tx)
        assert np.array_equal(orig.rx, back.rx)
        assert np.array_equal(orig.mask, back.mask)
        assert back.mask.dtype == bool


def test_estimates_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    ests = [_random_grid(rng) for _ in range(2)]
    path = tmp_path / "est.bin"
    save_estimates(path, {"method": "cntk", "ridge": 0.0}, ests)
    manifest, loaded = load_estimates(path)
    assert manifest["method"] == "cntk"
    for orig, back in zip(ests, loaded):
        assert np.array_equal(orig, back)


def test_wrong_kind_rejected(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "est.bin"
    save_estimates(path, {"method": "knn"}, [_random_grid(rng)])
    with pytest.raises(ValueError, match="not a dataset"):
        load_dataset(path)


def test_truncated_payload_error(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "est.bin"
    save_estimates(path, {"method": "cntk"}, [_random_grid(rng)])
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_estimates(path)


def test_garbage_header_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not json at all\n\x00\x01")
    with pytest.raises(ValueError, match="malformed"):
        load_dataset(path)
