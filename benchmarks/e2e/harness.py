"""Processes and HTTP for the end-to-end benchmark.

Children run with every ``REPRO_*`` variable removed, so they measure
the program's defaults, and with ``PYTHONPATH`` pointing at the
checkout's ``src``.  Each server runs in its own session so the process
pool it forks is stopped with it.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import signal
import subprocess
import time
from pathlib import Path
from typing import Any

_SERVING = re.compile(r"serving on [0-9.]+:(\d+)")


def child_env(root: Path) -> tuple[dict[str, str], list[str]]:
    """The environment for program children, and the names it cleared."""
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("REPRO_"))
    for key in cleared:
        del env[key]
    env["PYTHONPATH"] = str(root / "src")
    return env, cleared


def run_child(argv: list[str], env: dict[str, str], out: Path) -> dict[str, Any]:
    """Run one program process to exit; wall time, exit code, peak RSS."""
    with open(out, "wb") as fh:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


class Client:
    """One keep-alive HTTP/1.1 connection to a server."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(
        self, method: str, path: str, body: Any = None
    ) -> tuple[int, Any]:
        payload = None if body is None else json.dumps(body)
        self.conn.request(method, path, body=payload)
        resp = self.conn.getresponse()
        raw = resp.read()
        try:
            data = json.loads(raw) if raw else None
        except ValueError:
            data = raw.decode("utf-8", "replace")
        return resp.status, data

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(
        self, argv: list[str], env: dict[str, str], log: Path
    ) -> None:
        self.log = log
        self.ended = False
        self.started = time.monotonic()
        self._log_fh = open(log, "wb")
        self.proc = subprocess.Popen(
            argv,
            stdout=self._log_fh,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )
        try:
            self.client = Client(self._wait_port())
            status, data = self.client.call("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz returned {status}: {data}")
        except BaseException:
            self.kill()
            raise
        self.ready = time.monotonic()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.proc.poll() is None:
            match = _SERVING.search(self.log.read_text("utf-8", "replace"))
            if match:
                return int(match.group(1))
            time.sleep(0.005)
        raise RuntimeError(
            "server did not start; log tail:\n"
            + self.log.read_text("utf-8", "replace")[-2000:]
        )

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0 if match else float("nan")

    def stop(self) -> None:
        """SIGTERM: the server drains, flushes its WALs and exits."""
        self._end(signal.SIGTERM)

    def kill(self) -> None:
        """SIGKILL the server and everything it forked."""
        self._end(signal.SIGKILL)

    def _end(self, sig: int) -> None:
        if self.ended:
            return
        self.ended = True
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        pgid = self.proc.pid
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, sig)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(pgid, signal.SIGKILL)
            self.proc.wait()
        # The server's pool workers outlive it; as the subreaper (see
        # become_subreaper) this process adopts and reaps them.
        deadline = time.monotonic() + 10
        killed = False
        while True:
            with contextlib.suppress(ChildProcessError):
                while os.waitid(os.P_PGID, pgid, os.WEXITED | os.WNOHANG):
                    pass
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                if killed:
                    raise RuntimeError(f"process group {pgid} did not exit")
                os.killpg(pgid, signal.SIGKILL)
                killed = True
                deadline = time.monotonic() + 5
            time.sleep(0.005)
        self._log_fh.close()


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``)."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
