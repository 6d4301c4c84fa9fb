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

Fingerprint databases, quad databases and peak files share one per-track
layout, :class:`TrackTable`: each named array holds every track's rows run
after run, and ``meta["tracks"]`` lists each run's ``[track_id, row count]``.
"""
from __future__ import annotations

import itertools
import json
import math
import struct
import zlib
from pathlib import Path
from types import MappingProxyType

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


class TrackTable:
    """Rows of named arrays per track id, in insertion order; every name of a
    track holds the same number of rows. ``rows`` is a read-only view."""

    def __init__(self) -> None:
        self._rows: dict[str, dict[str, np.ndarray]] = {}
        self.rows = MappingProxyType(self._rows)
        self._joined: dict | None = None

    def add(self, track_id: str, rows: dict[str, np.ndarray]) -> None:
        if track_id in self._rows:
            raise DataError(f"duplicate track id {track_id!r}")
        self._rows[track_id] = rows
        self._joined = None

    def joined(self) -> dict:
        """Each name's rows of every track in order, plus ``ids``, each row's
        ``track`` index into them and each track's first row, ``starts``;
        cached until the next ``add``."""
        if self._joined is None:
            self._joined, sizes = _join(list(self._rows.items()))
            track = np.repeat(np.arange(len(sizes)), sizes)
            self._joined.update(ids=list(self._rows), track=track, starts=np.cumsum(sizes) - sizes)
        return self._joined

    def save(self, path: str | Path, kind: str, meta: dict) -> None:
        write_tracks(path, kind, list(self._rows.items()), meta)


def _join(runs: list) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Each name's rows of every run, concatenated, and each run's row count."""
    if not runs:
        raise DataError("empty track table")
    sizes = np.array([len(next(iter(rows.values()))) for _, rows in runs])
    return {name: np.concatenate([rows[name] for _, rows in runs]) for name in runs[0][1]}, sizes


def write_tracks(path: str | Path, kind: str, runs: list, meta: dict) -> None:
    """Write ``(track_id, {name: rows})`` runs, in which an id may recur, as
    one array per name and each run's ``[track_id, row count]`` in
    ``meta["tracks"]``."""
    arrays, sizes = _join(runs)
    tracks = [[tid, n] for (tid, _), n in zip(runs, sizes.tolist())]
    write(path, kind, arrays, {**meta, "tracks": tracks})


def read_tracks(path: str | Path, kind: str) -> tuple[list, dict]:
    """Inverse of :func:`write_tracks`: the runs in file order, and the meta.

    Raises :class:`DecodeError` unless ``meta["tracks"]`` is a non-empty list
    of ``[track_id, row count]`` pairs whose counts sum to every array's row
    count.
    """
    arrays, meta = read(path, kind)
    table = meta.get("tracks")
    ok = isinstance(table, list) and table and all(
        isinstance(r, list) and len(r) == 2 and isinstance(r[0], str)
        and type(r[1]) is int and r[1] >= 0
        for r in table
    )
    ends = list(itertools.accumulate(n for _, n in table)) if ok else []
    if not ok or any(a.shape[:1] != (ends[-1],) for a in arrays.values()):
        raise DecodeError(f"{path}: track table does not match the stored rows")
    runs = [(tid, {k: a[end - n : end] for k, a in arrays.items()})
            for (tid, n), end in zip(table, ends)]
    return runs, meta
