"""One ``repro.service`` server process, started fresh for each use.

Each server gets its own temporary directory inside the checkout for
its file-backed run store and its ``TMPDIR``, runs with
``--results-db none``, and is stopped with SIGTERM only after every
client connection is closed.  Its log must end in ``stopped cleanly``
and hold no traceback.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from repro.service import ServiceClient

__all__ = ["SECRET", "Server"]

SECRET = "perfbench-secret"
READY_LINE = "repro.service listening on http://"
STOPPED_LINE = "repro.service stopped cleanly"
STOP_TIMEOUT_S = 30.0


class Server:
    """``python -m repro.service serve``, or the traced launcher if *spans_path*."""

    def __init__(self, root: Path, scratch: Path, spans_path: Path | None = None):
        self.root = root
        self.workdir = Path(tempfile.mkdtemp(prefix="server-", dir=scratch))
        self.spans_path = spans_path
        self.host = "127.0.0.1"
        self.port = 0
        self.log: list[str] = []
        self._proc: asyncio.subprocess.Process | None = None
        self._reader: asyncio.Task | None = None

    def _argv(self) -> list[str]:
        serve = [
            "serve", "--host", self.host, "--port", "0",
            "--db", str(self.workdir / "runs.db"), "--secret", SECRET,
            "--results-db", "none", "--workers", "1",
        ]
        if self.spans_path is None:
            return [sys.executable, "-m", "repro.service", *serve]
        launcher = Path(__file__).with_name("launcher.py")
        return [sys.executable, str(launcher), str(self.spans_path), *serve]

    async def start(self) -> float:
        """Spawn; return seconds from spawn to the first ``/v1/health`` 200."""
        # A fixed hash seed gives every server the same dict and set layouts,
        # one source of run-to-run difference the workload seed does not set.
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), TMPDIR=str(self.workdir),
                   PYTHONHASHSEED="0")
        t0 = perf_counter()
        self._proc = await asyncio.create_subprocess_exec(
            *self._argv(), cwd=self.root, env=env,
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT,
        )
        while True:
            line = (await self._proc.stdout.readline()).decode(errors="replace")
            if not line:
                await self._proc.wait()
                raise RuntimeError("server exited before listening:\n" + "".join(self.log))
            self.log.append(line)
            if line.startswith(READY_LINE):
                self.port = int(line[len(READY_LINE):].split()[0].rsplit(":", 1)[1])
                break
        client = ServiceClient(self.host, self.port)
        try:
            await client.health()
        finally:
            await client.close()
        setup = perf_counter() - t0
        self._reader = asyncio.create_task(self._drain_log())
        return setup

    async def _drain_log(self) -> None:
        async for line in self._proc.stdout:
            self.log.append(line.decode(errors="replace"))

    def rss_mb(self) -> float:
        """Peak resident set size so far (``VmHWM``), in MiB."""
        with open(f"/proc/{self._proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    async def stop(self) -> list[str]:
        """SIGTERM, wait, and return what was wrong with the shutdown."""
        problems = []
        self._proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self._proc.wait(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            self._proc.kill()
            await self._proc.wait()
            problems.append(f"server ignored SIGTERM for {STOP_TIMEOUT_S}s")
        await self._reader
        text = "".join(self.log)
        if self._proc.returncode != 0:
            problems.append(f"server exited with code {self._proc.returncode}")
        if STOPPED_LINE not in text:
            problems.append("server log lacks 'stopped cleanly'")
        if "Traceback" in text:
            problems.append("traceback in server log:\n" + text[text.index("Traceback"):][:2000])
        return problems

    async def kill(self) -> None:
        """Last-resort cleanup after an error; never raises."""
        if self._proc is not None and self._proc.returncode is None:
            self._proc.kill()
            await self._proc.wait()
        if self._reader is not None:
            self._reader.cancel()

    def remove(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
