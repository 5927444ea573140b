"""Build-at-first-use machinery for the compiled kernels.

The shared object is compiled with cffi's API mode the first time the
``c`` backend is actually used and cached under a content-addressed
directory (``~/.cache/repro-ckernels`` by default,
``REPRO_CKERNELS_CACHE=`` to override) so later processes — including
the per-rank workers of the process SimMPI backend — just ``dlopen`` it.
Concurrent first builds are race-safe: each builder compiles in its own
temporary directory and publishes with an atomic :func:`os.replace`;
losing the race is fine because every winner produced the same bytes
(the cache key hashes the C source).

Compile flags matter for reproducibility: ``-ffp-contract=off`` forbids
FMA contraction so every C expression performs the same IEEE-754
roundings as the NumPy ufunc sequence it mirrors.
``-fno-trapping-math`` changes no value; it only lets GCC if-convert the
assemble sweep's rotation terms so that loop vectorises.  There is no
``-march=native``: on x86-64 the RHS sweeps carry
``target_clones("avx2","default")`` and the loader picks the clone for
the host (:func:`isa` names it), so one cached object stays portable
across the machines that share a cache directory and rounds identically
on all of them.

Nothing here raises at import time.  :func:`toolchain_available` is the
single probe point (monkeypatch target for the forced-fallback tests);
:func:`load` raises :class:`CKernelsUnavailable` on any failure and the
backend factory turns that into a silent fallback.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

from repro.fd.ckernels.csrc import CDEF, CSRC

_CACHE_ENV = "REPRO_CKERNELS_CACHE"
_MODULE_NAME = "_repro_ckernels"
#: Public so the determinism lint (REP016) and docs can point at the
#: exact flag set: -ffp-contract=off is the bitwise contract with the
#: NumPy reference, not an optimization preference; -fno-trapping-math
#: only licenses if-conversion (no value changes).
COMPILE_ARGS = ["-O3", "-ffp-contract=off", "-fno-trapping-math"]

#: Memoized (lib, ffi) pair / failure reason for this process.
_loaded: tuple | None = None
_load_error: str | None = None
#: Rank threads of the thread launcher all construct their solver — and
#: so first load the kernels — at the same moment; one builds, the rest
#: wait for the memoized result.
_load_lock = threading.Lock()


class CKernelsUnavailable(RuntimeError):
    """The compiled backend cannot be built or loaded in this environment."""


def cache_dir() -> Path:
    env = os.environ.get(_CACHE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-ckernels"


def source_key() -> str:
    """Content hash of everything that determines the built object."""
    h = hashlib.sha256()
    h.update(CDEF.encode())
    h.update(CSRC.encode())
    h.update(repr(COMPILE_ARGS).encode())
    h.update(sysconfig.get_platform().encode())
    h.update(f"py{sys.version_info[0]}.{sys.version_info[1]}".encode())
    return h.hexdigest()[:16]


def so_path() -> Path:
    ext = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return cache_dir() / source_key() / f"{_MODULE_NAME}{ext}"


def toolchain_available() -> tuple[bool, str]:
    """Probe for cffi plus a C compiler; never raises.

    This is the seam the forced-fallback tests monkeypatch: everything
    that might build goes through it first.
    """
    try:
        import cffi  # noqa: F401
    except Exception as exc:  # pragma: no cover - depends on environment
        return False, f"cffi unavailable ({exc.__class__.__name__})"
    cc = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if cc is None:  # pragma: no cover - depends on environment
        return False, "no C compiler (cc/gcc/clang) on PATH and CC unset"
    return True, cc


def is_loaded() -> bool:
    """Whether this process already holds the compiled kernels."""
    return _loaded is not None


def isa() -> str | None:
    """Instruction set of the sweep clone the loader picked on this host
    (``"avx2"`` or ``"default"``); None until the kernels are loaded."""
    if _loaded is None:
        return None
    lib, ffi = _loaded
    return ffi.string(lib.ck_isa()).decode()


def build_status() -> dict:
    """Introspection for the ``repro-paper kernels`` subcommand."""
    ok, detail = toolchain_available()
    target = so_path()
    return {
        "cache_dir": str(cache_dir()),
        "source_key": source_key(),
        "shared_object": str(target),
        "built": target.exists(),
        "loaded": _loaded is not None,
        "isa": isa(),
        "toolchain": detail if ok else None,
        "toolchain_ok": ok,
        "error": _load_error,
    }


def _compile(target: Path) -> None:
    from cffi import FFI

    builder = FFI()
    builder.cdef(CDEF)
    builder.set_source(_MODULE_NAME, CSRC, extra_compile_args=COMPILE_ARGS)
    target.parent.mkdir(parents=True, exist_ok=True)
    # build in a private tmpdir on the same filesystem, publish atomically
    tmpdir = tempfile.mkdtemp(prefix=".build-", dir=target.parent)
    try:
        built = builder.compile(tmpdir=tmpdir, verbose=False)
        try:
            os.replace(built, target)
        except OSError:
            if not target.exists():
                raise
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _load_shared_object(target: Path):
    spec = importlib.util.spec_from_file_location(_MODULE_NAME, target)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {target}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.lib, mod.ffi


def load() -> tuple:
    """The ``(lib, ffi)`` pair, building on first use.

    Raises :class:`CKernelsUnavailable` with the probe/build failure
    reason; the result (either way) is memoized for the process.
    """
    global _loaded, _load_error
    if _loaded is not None:
        return _loaded
    with _load_lock:
        if _loaded is not None:
            return _loaded
        if _load_error is not None:
            raise CKernelsUnavailable(_load_error)
        try:
            target = so_path()
            if not target.exists():
                ok, detail = toolchain_available()
                if not ok:
                    raise CKernelsUnavailable(detail)
                _compile(target)
            _loaded = _load_shared_object(target)
        except Exception as exc:
            _load_error = str(exc) or exc.__class__.__name__
            if isinstance(exc, CKernelsUnavailable):
                raise
            raise CKernelsUnavailable(_load_error) from exc
    return _loaded


def reset() -> None:
    """Forget the memoized load result (test hook)."""
    global _loaded, _load_error
    _loaded = None
    _load_error = None
