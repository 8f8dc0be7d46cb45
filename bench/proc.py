"""Child processes with their own resource usage, one at a time."""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
CHILD_TIMEOUT_S = 120


@dataclass
class Child:
    rc: int
    out: str
    err: str
    wall: float
    maxrss_mb: float


@contextmanager
def work_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under bench/.work, removed on the way out."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timeout(signum, frame):
    raise TimeoutError(f"child process ran past {CHILD_TIMEOUT_S} s")


def run(args: Sequence[str], work: Path, cwd: Optional[Path] = None) -> Child:
    """Run ``python args...`` to completion and reap it with wait4, so the
    wall time, CPU time and peak RSS are this child's alone."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            cwd=cwd or work,
            env=child_env(),
        )
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        rc=proc.returncode,
        out=out_path.read_text(encoding="utf-8", errors="replace"),
        err=err_path.read_text(encoding="utf-8", errors="replace"),
        wall=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )
