"""Host fingerprint attached to every benchmark record.

Results from different host classes must never be compared silently:
``host_class`` hashes what decides the speed class (cores, CPU model,
Python, numpy, popcount path), and ``source`` identifies the code
measured (the git sha when the checkout has one, else a digest of
``src/``).
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np

__all__ = ["fingerprint"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "none"


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path) -> dict:
    """The host and source identity of one benchmark run."""
    from repro.hdc.backends.packed import using_hardware_popcount

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "popcount": (
            "np.bitwise_count" if using_hardware_popcount() else "fallback"
        ),
    }
    host["host_class"] = hashlib.sha256(
        repr(sorted(host.items())).encode()
    ).hexdigest()[:12]
    host["git_sha"] = _git_sha(root)
    host["src_digest"] = _source_digest(root / "src")
    return host
