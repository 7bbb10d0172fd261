"""Start, probe and stop the real server process.

The server is ``python -m repro.cli serve`` (or ``cluster serve``),
started from the checkout with ``src`` on ``PYTHONPATH``.  A traced run
starts the same command through :mod:`perfbench.launch`, which installs
the span probes first.  Stopping sends SIGINT, the CLI's graceful drain;
anything still alive afterwards, shard children included, is killed and
waited for.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from repro.serve.client import ServeClient

_ROUTER_LINE = re.compile(r"cluster router for .* on [^:]+:(\d+)")


class ServerProcess:
    def __init__(self, root: Path, workdir: Path, cli_args: list[str],
                 trace_out: Optional[Path] = None, router: bool = False):
        self.root = root
        self.workdir = workdir
        self.cli_args = cli_args
        self.trace_out = trace_out
        self.router = router
        self.log = workdir / "server.log"
        self.port_file = workdir / "server.port"
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._children: set[int] = set()

    def start(self, timeout: float = 90.0) -> None:
        """Launch, then block until ``health`` reports ready."""
        args = list(self.cli_args)
        if not self.router:
            self.port_file.unlink(missing_ok=True)
            args += ["--port-file", str(self.port_file)]
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, "-m", "perfbench.launch",
                   "--trace-out", str(self.trace_out),
                   "--probes", "router" if self.router else "server", "--", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(self.root / "src"), str(self.root)])
        env["TMPDIR"] = str(self.workdir)
        env.pop("REPRO_PLANNER_CACHE_DIR", None)
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = time.monotonic() + timeout
        self.port = self._await_port(deadline)
        with ServeClient(port=self.port, timeout=5.0, retries=0) as client:
            while True:
                self._check_alive()
                try:
                    if client.health().get("ready"):
                        break
                except Exception:
                    client.close()
                if time.monotonic() > deadline:
                    raise RuntimeError(f"server not ready; see {self.log}")
                time.sleep(0.02)
        self._children = set(_children(self.proc.pid))

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.proc.returncode}; log:\n"
                + self.log.read_text(errors="replace")[-3000:]
            )

    def _await_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            self._check_alive()
            if self.router:
                match = _ROUTER_LINE.search(self.log.read_text(errors="replace"))
                if match:
                    return int(match.group(1))
            else:
                try:
                    text = self.port_file.read_text().strip()
                    if text:
                        return int(text)
                except (OSError, ValueError):
                    pass
            time.sleep(0.02)
        raise RuntimeError(f"server did not bind in time; see {self.log}")

    def pids(self) -> list[int]:
        return [self.proc.pid, *sorted(self._children)]

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server (plus shard children), in MB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self, timeout: float = 60.0) -> int:
        """Graceful SIGINT drain; kill whatever is left; wait for all."""
        if self.proc is None:
            return 0
        pids = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        for pid in pids:
            _kill(pid)
        self.proc.wait(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in pids[1:]) and time.monotonic() < deadline:
            time.sleep(0.02)
        code = self.proc.returncode
        self.proc = None
        return code


def _children(pid: int) -> list[int]:
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (after the parenthesised command name) is the parent pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry.name))
    return out


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _kill(pid: int) -> None:
    if _alive(pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
