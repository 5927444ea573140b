"""Checkpointing: save / restore solver states as ``.npz`` archives.

The production run in the paper saved three-dimensional data 127 times
over a six-hour run; this module provides the (laptop-scale) analogue,
storing the prognostic fields per panel plus the run clock.  The state
*layout* is recorded explicitly: a Yin-Yang panel pair is stored under
the panel names, a single (lat-lon) state under a ``single`` layout.

Members are *stored*, not deflated — float64 mantissas do not compress
(deflate bought 11-18 % of the bytes for ~25x the time) — so a save
costs a memory copy plus the SHA pass of the embedded fingerprint.
``np.load`` reads both, so archives from the deflating writer still
load.  An archive is written under a temporary name and renamed onto
the final one: a name that exists is a whole archive.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.grids.component import Panel
from repro.mhd.state import FIELD_NAMES, MHDState

_FORMAT_VERSION = 2

#: key prefix of a single (non-panel) state in the archive
_SINGLE = "single"

#: key prefix of caller metadata entries (see ``save_checkpoint(meta=)``)
_META = "_meta:"

#: appended to the final name while an archive is being written; not
#: ``.npz``, so no checkpoint glob picks up a half-written file
TEMP_SUFFIX = ".tmp"

CheckpointStates = dict[Panel, MHDState] | MHDState
Meta = dict[str, str | int | float]


class CheckpointError(ValueError):
    """An archive that cannot be restored; the message names the path
    and the cause (truncated, bad CRC, wrong version, fingerprint)."""


def _npz_path(path: str | Path) -> Path:
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def save_checkpoint(
    path: str | Path,
    states: CheckpointStates,
    *,
    time: float = 0.0,
    step: int = 0,
    meta: Meta | None = None,
) -> Path:
    """Write a checkpoint archive.

    Accepts either a Yin-Yang panel pair or a single (lat-lon) state;
    the layout is recorded so :func:`load_checkpoint` reconstructs the
    same shape.  ``meta`` entries (scalar str/int/float) are stored
    under ``_meta:<key>`` and read back with :func:`read_meta` — the
    parallel solver records its tile placement this way, which is what
    makes elastic (rank-count-changing) restarts possible.  Returns the
    path written (``.npz`` appended when missing); a failed save leaves
    no file under that name or the temporary one, and an archive already
    published there untouched.
    """
    from repro.checkers.fingerprint import states_root_digest

    single = isinstance(states, MHDState)
    panels = {_SINGLE: states} if single else {p.value: s for p, s in states.items()}
    # Fields first, bookkeeping last.  Readers go by the zip central
    # directory, so member order is free; this one puts the midpoint of
    # a panel-pair archive inside the second panel's density, which is
    # never zero — the frozen benchmarks/e2e smoke test zeroes 64 bytes
    # there and expects verify to fail, and with stored members zeroing
    # the zero wall rows of a vector potential is not a corruption.
    payload: dict[str, np.ndarray] = {
        f"{key}:{name}": arr
        for key, state in panels.items() for name, arr in state.named_arrays()
    }
    payload.update(
        _version=np.array(_FORMAT_VERSION), _time=np.array(time),
        _step=np.array(step), _layout=np.array(_SINGLE if single else "panels"),
    )
    if not single:
        payload["_panels"] = np.array(list(panels), dtype="U8")
    for key, value in (meta or {}).items():
        payload[f"{_META}{key}"] = np.array(value)
    # Bitwise state digest, always embedded: `repro-paper verify-bitwise`
    # and verify_checkpoint() use it to detect any post-save corruption
    # or cross-configuration drift without loading a reference run.
    payload[f"{_META}fingerprint"] = np.array(states_root_digest(states))
    final = _npz_path(path)
    tmp = final.with_name(final.name + TEMP_SUFFIX)
    try:
        with open(tmp, "wb") as fh:  # a file object: NumPy appends ".npz" to names
            np.savez(fh, **payload)
        # no fsync: power-loss durability is not claimed, and a live
        # system sees the name only after the data
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return final


def read_checkpoint(path: str | Path) -> tuple[CheckpointStates, float, int, Meta]:
    """Read ``(states, time, step, meta)`` with one ``np.load`` open —
    the one reader behind the three views below.

    ``states`` is a ``Panel -> MHDState`` mapping for panel-pair saves
    and a bare :class:`MHDState` for single-state saves; ``meta`` holds
    the ``_meta:`` entries as Python scalars.  Every way a damaged
    archive fails (truncation, a byte that breaks a member CRC, a
    missing key, a foreign version) raises :class:`CheckpointError`; a
    path that does not exist stays a ``FileNotFoundError``.
    """
    # np.load imports zipfile for an .npz anyway; importing it here keeps
    # it (and shutil, bz2, lzma behind it) out of every program start
    import zipfile
    import zlib

    path = Path(path)
    if not path.exists():
        path = _npz_path(path)
    try:
        with np.load(path) as data:
            version = int(data["_version"])
            if version != _FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version {version} "
                    f"(only version {_FORMAT_VERSION} is supported)"
                )
            if str(data["_layout"]) == _SINGLE:
                states: CheckpointStates = MHDState(
                    *(data[f"{_SINGLE}:{n}"] for n in FIELD_NAMES))
            else:
                states = {
                    Panel(str(pv)): MHDState(*(data[f"{pv}:{n}"] for n in FIELD_NAMES))
                    for pv in data["_panels"]
                }
            meta = {key[len(_META):]: data[key].item()
                    for key in data.files if key.startswith(_META)}
            return states, float(data["_time"]), int(data["_step"]), meta
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: damaged checkpoint archive ({type(exc).__name__}: {exc})"
        ) from exc


def load_checkpoint(path: str | Path) -> tuple[CheckpointStates, float, int]:
    """``(states, time, step)`` of an archive."""
    return read_checkpoint(path)[:3]


def read_meta(path: str | Path) -> Meta:
    """The caller metadata of an archive, embedded fingerprint included.
    Reads the whole archive: a caller that also wants the fields takes
    both from one :func:`read_checkpoint`."""
    return read_checkpoint(path)[3]


def verify_checkpoint(path: str | Path) -> str:
    """Check an archive's stored bitwise fingerprint against its fields.

    Recomputes the state root digest from the loaded arrays and compares
    it to the ``_meta:fingerprint`` embedded at save time.  Returns the
    digest on success; raises :class:`CheckpointError` on mismatch (bit
    rot or hand-edited fields) or when no fingerprint is recorded.
    """
    from repro.checkers.fingerprint import states_root_digest

    states, _, _, meta = read_checkpoint(path)
    stored = meta.get("fingerprint")
    if stored is None:
        raise CheckpointError(f"{path}: no fingerprint recorded in this archive")
    actual = states_root_digest(states)
    if actual != stored:
        raise CheckpointError(
            f"{path}: fingerprint mismatch — stored {stored}, "
            f"recomputed {actual}"
        )
    return actual
