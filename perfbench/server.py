"""The collector server as its own process, and outside-in probes of it.

`ServerProcess` starts ``repro-anonymize serve`` (``python -m repro.cli
serve``) on an ephemeral loopback port, or, for a traced run, the same
command through ``launcher.py``, which installs the benchmark's span
wrappers first. ``stop()`` sends SIGTERM (the server drains and exits 0)
and waits for the process. CPU, peak RSS and open fds are read from
``/proc/<pid>``.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

TENANT = "bench"
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTEN_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """One ``serve`` process over a fresh state root."""

    def __init__(self, root: Path, design_path: Path, *, spans_path: "Path | None" = None):
        self.root = Path(root)
        self.spans_path = spans_path
        serve = ["serve", "-s", str(self.root), "--tenant", f"{TENANT}={design_path}"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, str(HERE / "launcher.py"), str(spans_path), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.root.mkdir(parents=True, exist_ok=True)
        self._stderr = open(self.root.parent / f"{self.root.name}.stderr", "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            stdin=subprocess.DEVNULL,
            env=env,
        )
        self.address = self._wait_listening()
        self.listening = time.perf_counter()

    def _wait_listening(self):
        deadline = time.monotonic() + _LISTEN_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
                break
            line = self.proc.stdout.readline()
            if not line:
                break
            text = line.decode("utf-8", "replace").strip()
            if text.startswith("listening on "):
                host, _, port = text[len("listening on ") :].rpartition(":")
                return host, int(port)
        self.kill()
        raise RuntimeError(f"server did not start: {self.stderr_text()}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stderr_text(self) -> str:
        if not self._stderr.closed:
            self._stderr.flush()
        return Path(self._stderr.name).read_text(encoding="utf-8", errors="replace")[-2000:]

    # ------------------------------------------------------------------
    # /proc probes
    # ------------------------------------------------------------------
    def cpu_seconds(self) -> float:
        """utime + stime of the server process."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # Fields 14 and 15 of stat(5); index 0 here is field 3 (state).
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def open_fds(self) -> int:
        return len(os.listdir(f"/proc/{self.pid}/fd"))

    # ------------------------------------------------------------------
    def stop(self) -> int:
        """SIGTERM (drain, checkpoint, exit) and wait; returns the exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
            return self.proc.returncode
        finally:
            self.proc.stdout.close()
            self._stderr.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def host_cpu_ticks() -> "tuple[int, int]":
    """``(all, steal)`` CPU ticks of the host so far (``/proc/stat``).

    Steal is time the hypervisor ran something else on this machine's
    CPUs; it shows how disturbed a run was.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return sum(fields[:8]), fields[7]
