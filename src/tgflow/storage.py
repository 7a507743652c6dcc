"""Trajectory container format, provenance sidecars and CSV export.

Binary layout (all little-endian):

    bytes 0..15   magic  b"TGFLOWTRAJECTORY"
    u32           format version (currently 2)
    u32           basis max_mode M
    u32           collocation grid_size
    u32           number of time steps N_t
    u8            kind tag (index into trajectory.KINDS), 3 pad bytes
    f64           alpha1
    f64           dt
    payload       row-major float64 coefficients, (N_t + 1) x M^2
    u32           CRC32 over every preceding byte: magic, header and payload

Version 1 files, whose CRC covered only the payload, are rejected: a flipped
header byte (alpha1, say) would load silently with the wrong basis.

A sidecar JSON `<path>.json` records provenance: config hash, seed and code
version.  All writes go through a temp file in the destination directory
followed by an atomic rename, so a killed run never leaves a readable
half-written trajectory.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import tempfile
import zlib

import numpy as np

from . import __version__
from .errors import (
    ChecksumFailed,
    GridMismatch,
    InvalidInput,
    MagicMismatch,
    UnknownKind,
    VersionUnsupported,
)
from .spectral import build_basis, norm_weights
from .trajectory import KINDS, Trajectory

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "save_trajectory",
    "load_trajectory",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "csv_text",
    "norms_csv",
    "cost_history_csv",
]

MAGIC = b"TGFLOWTRAJECTORY"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<IIIIB3xdd")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write bytes via temp file + rename in the destination directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, obj) -> None:
    """obj as indented JSON with sorted keys and a trailing newline."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def save_trajectory(
    path: str,
    traj: Trajectory,
    config_hash: str | None = None,
    seed: int | None = None,
) -> None:
    """Serialize a trajectory and its provenance sidecar atomically."""
    payload = np.ascontiguousarray(traj.coeffs, dtype="<f8").tobytes()
    header = _HEADER.pack(
        FORMAT_VERSION,
        traj.basis.max_mode,
        traj.basis.grid_size,
        traj.n_steps,
        KINDS.index(traj.kind),
        traj.basis.alpha1,
        traj.dt,
    )
    body = MAGIC + header + payload
    atomic_write_bytes(path, body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    sidecar = {
        "config_hash": config_hash,
        "seed": seed,
        "code_version": __version__,
        "format_version": FORMAT_VERSION,
        "kind": traj.kind,
    }
    atomic_write_json(path + ".json", sidecar)


def load_trajectory(path: str) -> Trajectory:
    """Read a trajectory file, verifying magic, version, CRC32 and finite values."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(MAGIC) + _HEADER.size + 4 or blob[: len(MAGIC)] != MAGIC:
        raise MagicMismatch(f"{path} is not a trajectory file")
    off = len(MAGIC)
    version, max_mode, grid_size, n_steps, kind_idx, alpha1, dt = _HEADER.unpack_from(blob, off)
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"{path} has format version {version}, expected {FORMAT_VERSION}")
    off += _HEADER.size
    n_modes = max_mode * max_mode
    n_bytes = (n_steps + 1) * n_modes * 8
    if len(blob) != off + n_bytes + 4:
        raise ChecksumFailed(f"{path} is truncated or padded")
    (crc_stored,) = struct.unpack_from("<I", blob, off + n_bytes)
    if (zlib.crc32(blob[: off + n_bytes]) & 0xFFFFFFFF) != crc_stored:
        raise ChecksumFailed(f"{path} fails its CRC32 check")
    if kind_idx >= len(KINDS):
        raise UnknownKind(f"{path} carries unknown kind tag {kind_idx}")
    payload = blob[off : off + n_bytes]
    coeffs = np.frombuffer(payload, dtype="<f8").reshape(n_steps + 1, n_modes).copy()
    if not np.isfinite(coeffs).all():
        raise InvalidInput(f"{path} holds non-finite coefficients")
    if not np.finfo(float).tiny <= dt < np.inf:
        raise GridMismatch(f"{path} has time step {dt!r}, not a positive normal float")
    try:
        basis = build_basis(max_mode, alpha1, grid_size)
    except ValueError as exc:
        raise GridMismatch(f"{path} describes an impossible basis: {exc}") from exc
    times = dt * np.arange(n_steps + 1)
    return Trajectory(times, coeffs, basis, KINDS[kind_idx])


def csv_text(header, rows) -> str:
    """header and rows as CSV text with "\n" line ends, floats in their shortest
    round-trip form; a cell holding a comma or a quote is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows)
    return buf.getvalue()


def norms_csv(traj: Trajectory) -> str:
    """Time series of spatial norms of a trajectory, one row per node."""
    kinds = ("L2", "V", "W", "H1", "H2", "H3")
    cols = [np.sqrt(np.sum(traj.coeffs ** 2 * norm_weights(traj.basis, k), axis=1)) for k in kinds]
    return csv_text(["t"] + [k.lower() for k in kinds], zip(traj.times, *cols))


def cost_history_csv(report) -> str:
    """Per-iteration optimizer record as CSV."""
    header = ["iteration", "cost", "step_size", "grad_norm", "grad_mapping", "constraint_active"]
    rows = zip(
        range(len(report.cost)), report.cost, report.step_size, report.grad_norm,
        report.grad_mapping, map(int, report.constraint_active), strict=True,
    )
    return csv_text(header, rows)
