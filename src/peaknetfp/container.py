"""The one binary container behind every file the package writes.

Checkpoints, fingerprint databases, quad databases and peak files are all
containers of a different ``kind``. Layout, integers little-endian:

- the 8-byte magic ``PNFPBOX1``
- the header length, u32
- the header, UTF-8 JSON with sorted keys:
  ``{"kind": str, "meta": {...}, "arrays": [[name, dtype, shape], ...]}``
- the bytes of each array, C order, in header order
- a CRC-32 of everything before it, u32

``read`` raises :class:`DecodeError` on a bad magic or checksum, a different
kind, a malformed header, or array sizes that do not add up to the file size.
Sizes are summed as Python ints before any array is built, so a bad header
cannot cause a huge allocation. Arrays come back as read-only views of the
file's bytes. What the meta and arrays of each kind must hold is checked by
that kind's loader.
"""
from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, DecodeError

MAGIC = b"PNFPBOX1"
DTYPES = ("<f4", "<f8", "<u8", "<i8", "|u1")
# magics of the per-kind formats this container replaced
_RETIRED = (b"PNFPCKPT", b"PNFPIDX1", b"QUADDB01", b"PKFP0001")


def write(path: str | Path, kind: str, arrays: dict, meta: dict) -> None:
    """Write named arrays plus JSON metadata; equal inputs give equal bytes."""
    blocks = [np.asarray(a, order="C") for a in arrays.values()]
    blocks = [a.astype(a.dtype.newbyteorder("<"), copy=False) for a in blocks]
    specs = [[name, a.dtype.str, list(a.shape)] for name, a in zip(arrays, blocks)]
    bad = [s for s in specs if s[1] not in DTYPES]
    if bad:
        raise ContractError(f"container arrays need a dtype in {DTYPES}: {bad}")
    head = {"kind": kind, "meta": meta, "arrays": specs}
    header = json.dumps(head, sort_keys=True).encode("utf-8")
    crc = 0
    with open(path, "wb") as fh:
        for piece in (MAGIC, struct.pack("<I", len(header)), header, *blocks):
            crc = zlib.crc32(piece, crc)
            fh.write(piece)
        fh.write(struct.pack("<I", crc))


def read(path: str | Path, kind: str) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`write` for a file that must be of ``kind``."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if blob[:8] in _RETIRED:
        raise DecodeError(f"{path}: written in a retired file format; rebuild it")
    if blob[:8] != MAGIC:
        raise DecodeError(f"{path}: bad magic, not a peaknetfp file")
    crc = int.from_bytes(blob[-4:], "little")
    if len(blob) < 16 or zlib.crc32(memoryview(blob)[:-4]) != crc:
        raise DecodeError(f"{path}: checksum mismatch, the file is truncated or corrupt")
    (head_len,) = struct.unpack_from("<I", blob, 8)
    body = 12 + head_len
    try:
        header = json.loads(blob[12:body].decode("utf-8"))
        meta, specs = header["meta"], header["arrays"]
        sizes = [
            np.dtype(dtype).itemsize * math.prod(shape)
            for _, dtype, shape in specs
            if dtype in DTYPES and all(type(n) is int and n >= 0 for n in shape)
        ]
        names = [name for name, _, _ in specs]
        ok = (
            isinstance(meta, dict)
            and len(sizes) == len(specs)
            and len(set(names)) == len(names)
            and all(isinstance(n, str) for n in names)
        )
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DecodeError(f"{path}: malformed header: {exc}") from exc
    if not ok or body + sum(sizes) + 4 != len(blob):
        raise DecodeError(f"{path}: malformed header or array sizes")
    if header.get("kind") != kind:
        raise DecodeError(f"{path}: holds a {header.get('kind')!r}, not a {kind!r}")
    arrays, off = {}, body
    for (name, dtype, shape), size in zip(specs, sizes):
        arrays[name] = np.frombuffer(blob, dtype, math.prod(shape), off).reshape(shape)
        off += size
    return arrays, meta


def track_runs(meta: dict, n_rows: int) -> list:
    """The ``meta["tracks"]`` table of ``[track_id, row count]`` runs.

    Raises :class:`DecodeError` unless it is a non-empty list of such pairs
    whose counts sum to ``n_rows``.
    """
    runs = meta.get("tracks")
    ok = isinstance(runs, list) and runs and all(
        isinstance(r, list) and len(r) == 2 and isinstance(r[0], str)
        and type(r[1]) is int and r[1] >= 0
        for r in runs
    )
    if not ok or sum(n for _, n in runs) != n_rows:
        raise DecodeError(f"track table does not match the {n_rows} stored rows")
    return runs
