"""Run ``python -m repro.service`` with spans around every layer.

Usage::

    python perfbench/launcher.py SPANS_JSON serve --port 0 ...

Everything after the spans path is handed unchanged to
``repro.service.__main__.main``.  When that returns (SIGTERM gives a
clean return), the spans kept in memory are written to ``SPANS_JSON``
together with the server's wall time, so writing them costs the
measured run nothing.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from spans import Recorder, install


def main(argv: list[str]) -> int:
    spans_path, service_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.service.__main__ import main as service_main

    t0 = perf_counter()
    code = service_main(service_argv)
    wall = perf_counter() - t0
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "t0": t0, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
