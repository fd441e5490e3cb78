"""Calibration, percentiles, memory and provenance for benchmark results."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import time
from fractions import Fraction
from typing import Dict, Optional, Sequence

PERCENTILES = (50, 90, 99, 99.9)

# Fastest time of calibration() on the reference host: 2-core Intel Xeon,
# CPython 3.11.7.
CALIBRATION_REF_S = 1.25e-3


def calibration() -> float:
    """Seconds for one fixed loop of Fraction and dict work, the same kind
    of work the package does, without the package.

    The benchmark host shares its cores: timed next to each op, this loop
    measures how much the other tenants slowed the op down.  The garbage
    collector is off while it runs, so a collection the program owes is paid
    inside the program's next op, never in the loop."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        seen = {}
        for i in range(1, 600):
            total += Fraction(i % 7 + 1, i % 11 + 3)
            seen[(i % 13, i % 5)] = total.numerator & 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def reference_time(elapsed: float, before: float, after: float) -> float:
    """elapsed rescaled to reference speed, the speed of the host while the
    calibration loop ran before and after it was as on the reference host."""
    return elapsed * 2 * CALIBRATION_REF_S / (before + after)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(n: int, pct: float) -> int:
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank pct percentile of n."""
    return n - _rank(n, pct)


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[float]:
    """The highest of PERCENTILES with at least min_beyond samples above
    it, or None when even the median has fewer."""
    ok = [p for p in PERCENTILES if beyond(n, p) >= min_beyond]
    return max(ok) if ok else None


def peak_rss_mb() -> float:
    """ru_maxrss of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout's .git directory, read without running git."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref))
    if sha:
        return sha
    packed = _read(os.path.join(root, ".git", "packed-refs")) or ""
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(src_dir: str) -> str:
    """sha256 over the package sources, so a checkout without .git still
    names the code it measured."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_info() -> Dict[str, object]:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        entries = []
    for entry in entries:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {"cpu_model": model, "l2": caches.get("L2"),
            "l3": caches.get("L3")}


def provenance(root: str, seed: int, load_at_start) -> Dict[str, object]:
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src", "plaid")),
        "nproc": len(os.sched_getaffinity(0)),
        **cpu_info(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "seed": seed,
        "loadavg_at_start": list(load_at_start),
    }
