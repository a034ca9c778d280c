"""One BLAS thread per process.

``import repro`` calls :func:`pin_blas_threads` once, after numpy and
scipy have loaded their OpenBLAS libraries, so every process that
imports the package computes with a single BLAS thread.  Parallelism
comes only from processes (``--jobs``, the ``pool`` engine): forked
workers inherit the pin and spawned ones re-import ``repro``.  The
matrices here are at most a few hundred rows by 784 columns, too small
for a second BLAS thread to pay, and a per-process BLAS pool multiplies
with the worker count into more spinning threads than cores.  A fixed
thread count also fixes the floating-point reduction order, so stored
results do not depend on the host's CPU count.

OpenBLAS is found through ``/proc/self/maps`` and driven through its
``*openblas*_{get,set}_num_threads*`` entry points with :mod:`ctypes`.
With another BLAS, or off Linux, nothing is changed and
:func:`blas_threads` returns ``None``.
"""

from __future__ import annotations

import ctypes

# Entry-point spellings: plain OpenBLAS, and the scipy-openblas wheels
# numpy (64-bit integer interface) and scipy (32-bit) vendor.
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _openblas_libraries() -> dict[str, ctypes.CDLL]:
    """Every OpenBLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return {}
    libraries = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            libraries[path] = ctypes.CDLL(path)
        except OSError:
            continue
    return libraries


def _entry(library: ctypes.CDLL, verb: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            function = getattr(library, f"{prefix}_{verb}_num_threads{suffix}", None)
            if function is not None:
                return function
    return None


def blas_thread_counts() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library path."""
    counts = {}
    for path, library in _openblas_libraries().items():
        getter = _entry(library, "get")
        if getter is not None:
            getter.restype = ctypes.c_int
            counts[path] = int(getter())
    return counts


def blas_threads() -> int | None:
    """Largest thread count of any loaded OpenBLAS, ``None`` if none is."""
    return max(blas_thread_counts().values(), default=None)


def pin_blas_threads() -> None:
    """Set every loaded OpenBLAS to one thread.

    A library loaded after this call keeps its own default until this
    is called again.
    """
    for library in _openblas_libraries().values():
        setter = _entry(library, "set")
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter(1)
