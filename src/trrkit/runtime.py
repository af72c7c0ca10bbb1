"""What the closed forms, the Pixton pipeline and the CLI share: the error
types behind the CLI's exit codes, the worker pool and the SHA-256 digest.

This module imports nothing from trrkit, so the closed-form half of ``trr``
and the CLI's closed-form commands load without ``pixton``, ``strata`` and
``stablegraphs``.
"""
from __future__ import annotations

import os

# the interpreter's own SHA-256, as the standard library's random takes its
# sha512: hashlib would load OpenSSL's libcrypto (a few MB of memory) for it
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


class ComputationGuardError(RuntimeError):
    """Raised when a computation exceeds the default scale guard."""


class FitInstabilityError(RuntimeError):
    """Raised when a held-out node contradicts the degree bound in r."""


class InvalidGraphError(ValueError):
    """Raised for data that is not a stable graph."""


def _worker_pool(processes: int):
    """A pool of ``processes`` workers from one explicit start method: fork
    where the platform has it, since the workers read caches warmed in the
    parent (other start methods rebuild them in every worker)."""
    import multiprocessing  # here, so that runs without workers never load it

    fork = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else None).Pool(processes)


def _worker_count(jobs: int, tasks: int) -> int:
    """Workers for ``tasks`` independent tasks: at most ``jobs``, the CPU
    count and the number of tasks."""
    if jobs < 1:
        raise ValueError(f"need a positive worker count, got {jobs}")
    return max(1, min(jobs, os.cpu_count() or 1, tasks)) if jobs > 1 else 1


def sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of ``data`` in hex, as ``hashlib.sha256`` gives it."""
    return _sha256(data).hexdigest()
