"""Process, machine and wire helpers shared by the workloads."""

from __future__ import annotations

import base64
import os
import platform
import re
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Sequence, Tuple

#: The checkout root (``perfbench/`` lives directly under it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores and span files; removed per run, never committed.
WORK_ROOT = ROOT / ".perfbench"


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the checkout's sources, no tracing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in ("REPRO_FAILPOINTS", "REPRO_CHAOS", "REPRO_LOCKCHECK"):
        env.pop(key, None)
    return env


@contextmanager
def workdir(label: str) -> Iterator[Path]:
    """A fresh scratch directory under :data:`WORK_ROOT`, removed afterwards."""
    path = WORK_ROOT / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# --------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------- #
def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no VmHWM line for pid {pid}")
    return int(match.group(1)) / 1024.0


# --------------------------------------------------------------------- #
# Machine fingerprint
# --------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_size() -> str:
    best: Tuple[int, str] = (-1, "unknown")
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def machine_fingerprint() -> Dict[str, str]:
    import numpy
    import scipy

    return {
        "nproc": str(os.cpu_count()),
        "cpu": _cpu_model(),
        "llc": _llc_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fsync": "group commit: one WAL fsync per admission batch (server default)",
    }


# --------------------------------------------------------------------- #
# The server under test
# --------------------------------------------------------------------- #
def start_server(store: Path, extra: Sequence[str] = ()) -> Tuple[object, int]:
    """``repro serve --listen`` in a subprocess with default flags (plus
    ``extra``); returns the running ``ManagedProcess`` and its port."""
    from repro.chaos.harness import ManagedProcess

    argv = [
        sys.executable, "-m", "repro", "serve",
        "--path", str(store), "--listen", "127.0.0.1:0", *extra,
    ]
    server = ManagedProcess(argv, env=child_env(), name="repro serve")
    try:
        return server, int(server.expect("listening")["port"])
    except BaseException:
        server.close()
        raise


def scrape_text(text: str) -> Dict[str, float]:
    """Prometheus exposition text (the ``metrics`` op's answer) as
    ``{"name{labels}": value}``, parsed by the chaos harness's scraper
    (which reads a URL, so the text goes in as a ``data:`` URL)."""
    from repro.chaos.harness import scrape_metrics

    return scrape_metrics("data:text/plain;base64," + base64.b64encode(text.encode()).decode())
