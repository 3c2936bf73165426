"""Grid container file format: JSON headers with raw binary payloads.

Every record is one UTF-8 JSON line (newline-terminated) followed by its
payload bytes. Complex grids use dtype tag "c128": row-major little-endian
float64 interleaved (re, im) pairs, which round-trips bit-exactly. Boolean
masks use dtype tag "b1": one byte per cell, 0 or 1.

A dataset file starts with a manifest record (JSON line, no payload)
followed by four grid records per realization: roles h_true, tx, rx
(c128) and mask (b1). An estimate file starts with its own manifest line
followed by one c128 record per realization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_DTYPE_TAGS = {"c128": np.dtype("<c16"), "b1": np.dtype(np.uint8)}

MAGIC = "channel-cntk"
FORMAT_VERSION = 1


def _write_record(fh, header: dict, payload: bytes = b"") -> None:
    fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
    fh.write(payload)


def _read_header(fh) -> dict:
    line = fh.readline()
    if not line:
        raise ValueError("unexpected end of file while reading record header")
    try:
        return json.loads(line.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed record header: {exc}") from exc


def _array_payload(arr: np.ndarray, dtype_tag: str) -> bytes:
    return np.ascontiguousarray(arr).astype(_DTYPE_TAGS[dtype_tag], copy=False).tobytes()


def write_array_record(fh, arr: np.ndarray, dtype_tag: str, **meta) -> None:
    """Write one grid record: header line with dims/dtype plus raw payload."""
    if dtype_tag not in _DTYPE_TAGS:
        raise ValueError(f"unsupported dtype tag {dtype_tag!r}")
    header = {"dtype": dtype_tag, "rows": int(arr.shape[0]), "cols": int(arr.shape[1])}
    header.update(meta)
    _write_record(fh, header, _array_payload(arr, dtype_tag))


def read_array_record(fh) -> tuple[np.ndarray, dict]:
    """Read one grid record; returns (array, header)."""
    header = _read_header(fh)
    tag = header.get("dtype")
    if tag not in _DTYPE_TAGS:
        raise ValueError(f"record carries unsupported dtype tag {tag!r}")
    rows, cols = int(header["rows"]), int(header["cols"])
    dtype = _DTYPE_TAGS[tag]
    n_bytes = rows * cols * dtype.itemsize
    payload = fh.read(n_bytes)
    if len(payload) != n_bytes:
        raise ValueError("truncated record payload")
    arr = np.frombuffer(payload, dtype=dtype).reshape(rows, cols)
    if tag == "c128":
        arr = arr.astype(np.complex128)
    else:
        arr = arr.astype(bool)
    return arr, header


@dataclass(frozen=True)
class DatasetRecord:
    """One simulated realization: true channel, transmit/receive grids, pilot mask."""

    h_true: np.ndarray
    tx: np.ndarray
    rx: np.ndarray
    mask: np.ndarray


def save_dataset(path, manifest: dict, records: list[DatasetRecord]) -> None:
    """Write a dataset file: manifest line plus 4 records per realization."""
    head = {"magic": MAGIC, "version": FORMAT_VERSION, "kind": "dataset",
            "n_records": len(records), "manifest": manifest}
    with open(path, "wb") as fh:
        _write_record(fh, head)
        for i, rec in enumerate(records):
            write_array_record(fh, rec.h_true, "c128", role="h_true", index=i)
            write_array_record(fh, rec.tx, "c128", role="tx", index=i)
            write_array_record(fh, rec.rx, "c128", role="rx", index=i)
            write_array_record(fh, rec.mask.astype(np.uint8), "b1", role="mask", index=i)


def load_dataset(path) -> tuple[dict, list[DatasetRecord]]:
    with open(path, "rb") as fh:
        head = _read_header(fh)
        if head.get("magic") != MAGIC or head.get("kind") != "dataset":
            raise ValueError(f"{path} is not a dataset file")
        records = []
        for i in range(int(head["n_records"])):
            parts = {}
            for role in ("h_true", "tx", "rx", "mask"):
                arr, hdr = read_array_record(fh)
                if hdr.get("role") != role or hdr.get("index") != i:
                    raise ValueError(f"dataset record {i} out of order (got {hdr.get('role')})")
                parts[role] = arr
            records.append(DatasetRecord(**parts))
    return head["manifest"], records


def save_estimates(path, manifest: dict, estimates: list[np.ndarray]) -> None:
    """Write an estimate file: manifest (method tag, params) plus one record each."""
    head = {"magic": MAGIC, "version": FORMAT_VERSION, "kind": "estimates",
            "n_records": len(estimates), "manifest": manifest}
    with open(path, "wb") as fh:
        _write_record(fh, head)
        for i, est in enumerate(estimates):
            write_array_record(fh, est, "c128", role="h_hat", index=i)


def load_estimates(path) -> tuple[dict, list[np.ndarray]]:
    with open(path, "rb") as fh:
        head = _read_header(fh)
        if head.get("magic") != MAGIC or head.get("kind") != "estimates":
            raise ValueError(f"{path} is not an estimates file")
        out = []
        for i in range(int(head["n_records"])):
            arr, hdr = read_array_record(fh)
            if hdr.get("index") != i:
                raise ValueError(f"estimate record {i} out of order")
            out.append(arr)
    return head["manifest"], out
