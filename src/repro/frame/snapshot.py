"""Model and solver snapshots (Caffe's ``snapshot``/``restore``).

Weights are stored as an uncompressed ``.npz`` keyed by parameter blob
name; solver state (iteration counter, velocity buffers) goes alongside so
training resumes exactly. Compression saved at most a third of a LeNet
solver snapshot's size but made each save over 30 times slower, and the
elastic trainer snapshots periodically. Loading reads compressed and
uncompressed ``.npz`` alike, validates shapes against the target net and
fails loudly on mismatches.
"""

from __future__ import annotations

import os
import re

import numpy as np

from repro.errors import ShapeError, SnapshotMismatchError
from repro.frame.net import Net
from repro.frame.solver import SGDSolver

#: Caffe-style snapshot filename produced by :func:`snapshot_path`.
_ITER_RE = re.compile(r"_iter_(\d+)\.npz$")


def save_weights(net: Net, path: str) -> None:
    """Write all parameter blobs of ``net`` to ``path`` (.npz)."""
    arrays = {p.name: p.data for p in net.params}
    if not arrays:
        raise ShapeError(f"net {net.name!r} has no parameters to save")
    np.savez(path, **arrays)


def load_weights(net: Net, path: str, *, strict: bool = True) -> list[str]:
    """Load parameters into ``net`` from an ``.npz`` snapshot.

    Returns the list of loaded blob names. With ``strict=True`` (default),
    every net parameter must be present in the file and vice versa.
    """
    with np.load(path) as data:
        stored = {k: data[k] for k in data.files}
    loaded = []
    for p in net.params:
        if p.name not in stored:
            if strict:
                raise ShapeError(f"snapshot is missing parameter {p.name!r}")
            continue
        arr = stored.pop(p.name)
        if arr.shape != p.shape:
            raise ShapeError(
                f"snapshot parameter {p.name!r} has shape {arr.shape}, "
                f"net expects {p.shape}"
            )
        p.data = arr
        loaded.append(p.name)
    if strict and stored:
        raise ShapeError(
            f"snapshot contains parameters the net does not: {sorted(stored)}"
        )
    return loaded


def save_solver(solver: SGDSolver, path: str) -> None:
    """Write weights + solver state (iteration, velocities) to ``path``."""
    arrays: dict[str, np.ndarray] = {"__iter__": np.array([solver.iter])}
    for p in solver.net.params:
        arrays[f"w::{p.name}"] = p.data
        v = solver._velocity.get(id(p))
        if v is not None:
            arrays[f"v::{p.name}"] = v
    np.savez(path, **arrays)


def load_solver(solver: SGDSolver, path: str) -> None:
    """Restore weights + solver state written by :func:`save_solver`.

    When ``path`` follows the Caffe-style ``{prefix}_iter_{N}.npz`` naming,
    the stored iteration counter must equal ``N`` — a recovery resuming
    from the wrong point would silently corrupt training, so a mismatch
    raises :class:`~repro.errors.SnapshotMismatchError` instead.
    """
    with np.load(path) as data:
        stored = {k: data[k] for k in data.files}
    if "__iter__" not in stored:
        raise ShapeError(f"{path!r} is not a solver snapshot")
    stored_iter = int(stored.pop("__iter__")[0])
    m = _ITER_RE.search(os.path.basename(path))
    if m is not None and stored_iter != int(m.group(1)):
        raise SnapshotMismatchError(
            f"snapshot {path!r} claims iteration {m.group(1)} in its name "
            f"but stores iteration {stored_iter}"
        )
    solver.iter = stored_iter
    # Restore means *exact* state: velocities absent from the snapshot
    # (e.g. an iteration-0 file) must not survive from before the load,
    # or a rollback would resume with momentum the snapshot never had.
    solver._velocity.clear()
    by_name = {p.name: p for p in solver.net.params}
    for key, arr in stored.items():
        kind, _, name = key.partition("::")
        p = by_name.get(name)
        if p is None:
            raise ShapeError(f"snapshot references unknown parameter {name!r}")
        if arr.shape != p.shape:
            raise ShapeError(
                f"snapshot parameter {name!r} shape {arr.shape} != {p.shape}"
            )
        if kind == "w":
            p.data = arr
        elif kind == "v":
            solver._velocity[id(p)] = arr.astype(np.float64)
        else:
            raise ShapeError(f"unknown snapshot key {key!r}")


def snapshot_path(prefix: str, iteration: int) -> str:
    """Caffe-style snapshot filename."""
    return f"{prefix}_iter_{iteration}.npz"
