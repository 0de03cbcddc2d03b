"""Run ``repro-anonymize serve`` with the benchmark's span wrappers.

Usage: ``python3 perfbench/launcher.py SPANS.json serve -s ROOT --tenant ...``

Wraps the server-side layers (``layers.install_server``), then hands
the remaining arguments to ``repro.cli.main``. When the server drains
(SIGTERM) and ``main`` returns, the spans are written to SPANS.json.
"""

from __future__ import annotations

import sys

from layers import install_server
from spans import Recorder, task_request_id


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    recorder = Recorder(request_id=task_request_id)
    install_server(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
