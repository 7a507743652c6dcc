import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import crafted_trajectory, random_traj
from tgflow import build_basis
from tgflow.errors import (
    ChecksumFailed,
    GridMismatch,
    InvalidInput,
    MagicMismatch,
    UnknownKind,
    VersionUnsupported,
)
from tgflow.spectral import MAX_GRID_SIZE, Field, norms
from tgflow.storage import (
    FORMAT_VERSION,
    MAGIC,
    atomic_write_bytes,
    cost_history_csv,
    load_trajectory,
    norms_csv,
    save_trajectory,
)
from tgflow.trajectory import KINDS, Trajectory, check_same_grid, time_grid


@pytest.fixture
def traj(basis, rng):
    return random_traj(basis, time_grid(0.5, 12), rng, kind="state")


def test_roundtrip_bitwise(tmp_path, traj):
    path = str(tmp_path / "t.traj")
    save_trajectory(path, traj, config_hash="abc", seed=7)
    back = load_trajectory(path)
    assert np.array_equal(back.coeffs, traj.coeffs)
    assert back.kind == traj.kind
    assert back.basis.compatible(traj.basis)
    assert np.allclose(back.times, traj.times, rtol=0, atol=1e-15)


def test_sidecar_provenance(tmp_path, traj):
    path = str(tmp_path / "t.traj")
    save_trajectory(path, traj, config_hash="deadbeef", seed=42)
    with open(path + ".json") as handle:
        side = json.load(handle)
    assert side["config_hash"] == "deadbeef"
    assert side["seed"] == 42
    assert side["code_version"]


def test_truncated_file_fails_checksum(tmp_path, traj):
    path = str(tmp_path / "t.traj")
    save_trajectory(path, traj)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-5])
    with pytest.raises(ChecksumFailed):
        load_trajectory(path)


def test_corrupted_payload_fails_checksum(tmp_path, traj):
    path = str(tmp_path / "t.traj")
    save_trajectory(path, traj)
    blob = bytearray(Path(path).read_bytes())
    blob[60] ^= 0xFF
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ChecksumFailed):
        load_trajectory(path)


def test_magic_mismatch(tmp_path, traj):
    path = str(tmp_path / "t.traj")
    save_trajectory(path, traj)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(b"NOTTHERIGHTMAGIC" + blob[16:])
    with pytest.raises(MagicMismatch):
        load_trajectory(path)


def test_version_unsupported(tmp_path, traj):
    path = str(tmp_path / "t.traj")
    save_trajectory(path, traj)
    blob = bytearray(Path(path).read_bytes())
    blob[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", 99)
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(VersionUnsupported):
        load_trajectory(path)


def test_header_corruption_fails_checksum(tmp_path, traj):
    """alpha1 0.5 -> 0.75 in the header must not load with the wrong basis."""
    path = str(tmp_path / "t.traj")
    save_trajectory(path, traj)
    blob = bytearray(Path(path).read_bytes())
    alpha1_at = len(MAGIC) + 20  # after version, M, grid size, N_t and the kind word
    assert struct.unpack_from("<d", blob, alpha1_at)[0] == traj.basis.alpha1
    struct.pack_into("<d", blob, alpha1_at, 0.75)
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ChecksumFailed):
        load_trajectory(path)


def test_version_1_file_rejected(tmp_path, traj):
    """A v1 file, whose CRC covers only the payload, is refused, not read."""
    payload = np.ascontiguousarray(traj.coeffs, dtype="<f8").tobytes()
    header = struct.pack(
        "<IIIIB3xdd", 1, traj.basis.max_mode, traj.basis.grid_size, traj.n_steps, 0,
        traj.basis.alpha1, traj.dt,
    )
    path = str(tmp_path / "v1.traj")
    crc = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    Path(path).write_bytes(MAGIC + header + payload + crc)
    with pytest.raises(VersionUnsupported):
        load_trajectory(path)


def test_basis_mismatch_detected_downstream(tmp_path, rng, basis):
    other = build_basis(3, basis.alpha1)
    t_other = random_traj(other, time_grid(0.5, 12), rng)
    path = str(tmp_path / "o.traj")
    save_trajectory(path, t_other)
    loaded = load_trajectory(path)
    t_main = random_traj(basis, time_grid(0.5, 12), rng)
    with pytest.raises(GridMismatch):
        check_same_grid(t_main, loaded)


def test_atomic_write_leaves_no_partial_file(tmp_path, monkeypatch):
    target = str(tmp_path / "out.bin")

    def broken_replace(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"half-written payload")
    assert not os.path.exists(target)
    assert all(not name.startswith(".tmp-") for name in os.listdir(tmp_path))


def test_norms_csv_roundtrips_floats(traj):
    """Every cell reads back as the node's time or as norms() of its Field, bitwise."""
    rows = [line.split(",") for line in norms_csv(traj).strip().split("\n")]
    kinds = [k.upper() for k in rows[0][1:]]
    assert rows[0][0] == "t" and kinds == ["L2", "V", "W", "H1", "H2", "H3"]
    assert len(rows) == traj.times.size + 1
    for k, row in enumerate(rows[1:]):
        assert float(row[0]) == traj.times[k]
        f = Field(traj.coeffs[k], traj.basis)
        for kind, cell in zip(kinds, row[1:]):
            assert float(cell) == norms(f, kind), (k, kind)


@pytest.mark.parametrize(
    "max_mode, grid_size, alpha1, dt",
    [
        (0, 8, 0.5, 0.1),        # no modes
        (2, 8, -0.5, 0.1),       # negative alpha1
        (4, 5, 0.5, 0.1),        # grid below 2M + 1 = 9
        (4, 8, 0.5, 0.1),        # grid 2M: some quadratures are no longer exact
        (2, 8, float("nan"), 0.1),
        (2, 8, 0.5, float("nan")),
        (2, MAX_GRID_SIZE + 1, 0.5, 0.1),  # grid above the cap, refused before allocating
        (2, 8, 0.5, 1e-320),     # subnormal dt
    ],
)
def test_impossible_header_is_a_validation_error(tmp_path, max_mode, grid_size, alpha1, dt):
    """A header with a valid CRC that no basis or time grid fits is rejected as such."""
    n_steps = 3
    header = struct.pack(
        "<IIIIB3xdd", FORMAT_VERSION, max_mode, grid_size, n_steps, 0, alpha1, dt
    )
    payload = np.zeros((n_steps + 1) * max_mode ** 2, dtype="<f8").tobytes()
    body = MAGIC + header + payload
    path = str(tmp_path / "bad.traj")
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(GridMismatch):
        load_trajectory(path)


def test_unknown_kind_tag_is_rejected(tmp_path):
    path = crafted_trajectory(tmp_path / "bad.traj", 2, 8, 0.5, 0.1, kind=len(KINDS))
    with pytest.raises(UnknownKind, match=f"tag {len(KINDS)}"):
        load_trajectory(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_payload_is_rejected(tmp_path, traj, bad):
    """A non-finite coefficient with a valid CRC is an input error naming the file."""
    coeffs = traj.coeffs.copy()
    coeffs[3, 2] = bad
    path = str(tmp_path / "bad.traj")
    save_trajectory(path, Trajectory(traj.times, coeffs, traj.basis, traj.kind))
    with pytest.raises(InvalidInput, match="bad.traj"):
        load_trajectory(path)


def test_cost_history_csv_shape():
    class R:
        cost = [1.0, 0.5]
        step_size = [0.1, 0.0]
        grad_norm = [2.0, 1.0]
        grad_mapping = [2.0, 1.0]
        constraint_active = [False, True]

    text = cost_history_csv(R())
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[2].endswith(",1")
    assert float(lines[1].split(",")[1]) == 1.0
