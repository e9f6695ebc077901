"""Process plumbing shared by every workload: child runs, tallies, provenance.

Each CLI command runs as a child process of this one, with its own rusage
read back through ``os.wait4``, so CPU time and peak memory belong to that
command (and to any pool workers it reaped) and to nothing else.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
COMMAND_TIMEOUT_S = 150.0


def source_ready(root: Path = ROOT) -> bool:
    """True when the checkout holds the graphirr package source."""
    pkg = root / "src" / "graphirr"
    return all((pkg / f).is_file() for f in ("__init__.py", "__main__.py", "cli.py"))


def source_version(root: Path = ROOT) -> str:
    """``__version__`` as written in the package source, read without importing."""
    for line in (root / "src" / "graphirr" / "__init__.py").read_text().splitlines():
        if line.startswith("__version__"):
            return line.split("=", 1)[1].strip().strip("\"'")
    raise RuntimeError("no __version__ line in src/graphirr/__init__.py")


def child_env(root: Path = ROOT) -> dict[str, str]:
    """Environment for CLI children: this checkout's source, no ambient cache.

    ``enumerate_codes_cached`` falls back to ``GRAPHIRR_CACHE_DIR`` when no
    directory is passed, which would turn a cold pass warm without notice.
    """
    env = dict(os.environ)
    env.pop("GRAPHIRR_CACHE_DIR", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class CommandResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_command(argv: list[str], env: dict[str, str], scratch: Path) -> CommandResult:
    """Run one child to completion and return its own rusage.

    Output goes to files rather than pipes so a chatty child can never block
    on a full pipe while we sit in ``wait4``.  A timer kills a hung child, so
    the benchmark always ends within its time limit; if this process is
    interrupted, the child is killed and reaped before the exception leaves.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out_fh, stderr=err_fh, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def graphirr_argv(*args: str) -> list[str]:
    """The installed CLI as a user runs it: ``python -m graphirr ...``."""
    return [sys.executable, "-m", "graphirr", *args]


@dataclass
class Tally:
    """Operations attempted and failed; a failure keeps its reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def fresh_dir(path: Path) -> Path:
    """An empty directory at ``path``, removing whatever was there."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        res = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout if res.returncode == 0 else None


def source_digest(root: Path = ROOT) -> str:
    """sha256 over the package source and build file, for checkouts without git."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + [root / "pyproject.toml"]
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, package_version: str) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "package_version": package_version,
    }
