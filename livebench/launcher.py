"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python3 livebench/launcher.py SPANS_OUT serve APP --port 0 ...

Installs the wrappers of :mod:`spans` (plus the HTTP handler's), runs the
CLI entry point with the remaining arguments, and writes the recorded
spans to ``SPANS_OUT`` once the server has shut down gracefully (SIGTERM
drains in-flight requests, then ``repro.cli.main`` returns).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    from spans import Recorder, install

    spans_out, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder, server=True)
    from repro.cli import main as repro_main

    status = repro_main(cli_args)
    recorder.dump(spans_out)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
