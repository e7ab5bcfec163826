"""Build and load the compiled row loop (``_rowsweep.c``) at first use.

The C source ships inside the package.  :func:`load` compiles it with
the system C compiler into ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), under a file name that hashes the source, the flags
and the machine, and loads it with :mod:`ctypes`.  A warm cache loads
the existing file without running the compiler.  Concurrent first users
are safe: each builds into its own temporary file and ``os.replace``\\ s
it into place, so every process loads one complete library.

Nothing here raises: a host without a compiler, or a build that fails,
yields ``(None, reason)`` and :class:`~repro.align.rowscan.RowSweeper`
keeps its NumPy body, which is bit-identical.  The reason becomes a
``kernel.fallback.<reason>`` counter in the run's metrics.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: ``-fwrapv`` makes signed int32 overflow wrap, as NumPy's int32 does.
FLAGS = ("-O3", "-fwrapv", "-shared", "-fPIC")

#: Fallback reasons, as they appear in ``kernel.fallback.<reason>``.
NO_SOURCE = "no_source"
NO_COMPILER = "no_compiler"
BUILD_FAILED = "build_failed"

_p = ctypes.c_void_p
_i32 = ctypes.c_int32
_i64 = ctypes.c_int64
#: ``rowsweep``'s signature; see the comment at the top of the source.
ARGTYPES = (_i64, _i64, _p, _p, _i64, _p, _p, _p, _i32, _i32, _i32, _i32,
            _i32, _i32, _i64, _p, _p, _i64, _p, _p, _p, _p, _p)


def source() -> Path:
    """The packaged C source of the row loop (package data, next to this
    module; ``importlib.resources`` finds the same file)."""
    return Path(__file__).with_name("_rowsweep.c")


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def compiler() -> str | None:
    """The system C compiler, or ``None`` if there is none."""
    return shutil.which("cc") or shutil.which("gcc")


def library_path(code: bytes, cc: str) -> Path:
    """The cache file for this source, compiler, flags and machine."""
    key = hashlib.sha256()
    for part in (code, cc.encode(), " ".join(FLAGS).encode(),
                 platform.machine().encode(), sys.platform.encode()):
        key.update(part)
        key.update(b"\0")
    return cache_dir() / f"rowsweep-{key.hexdigest()[:16]}.so"


def _build(src: Path, cc: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".",
                               suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, str(src)], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True,
                       timeout=120)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load():
    """``(rowsweep, None)`` on success, ``(None, reason)`` on any failure.

    ``rowsweep`` is the library's ctypes function, ``argtypes`` set.
    """
    src = source()
    try:
        code = src.read_bytes()
    except OSError:
        return None, NO_SOURCE
    cc = compiler()
    if cc is None:
        return None, NO_COMPILER
    target = library_path(code, cc)
    try:
        if not target.exists():
            _build(src, cc, target)
        fn = ctypes.CDLL(str(target)).rowsweep
    except (OSError, AttributeError, subprocess.SubprocessError):
        # Compiler error or timeout, unwritable cache, unloadable library.
        return None, BUILD_FAILED
    fn.argtypes = ARGTYPES
    fn.restype = None
    return fn, None
