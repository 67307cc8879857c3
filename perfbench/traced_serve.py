"""Run the ``repro`` CLI with the benchmark's timing wrappers installed.

Usage: ``python perfbench/traced_serve.py TRACE_DIR serve --port 0 ...``

The wrappers are installed before the server starts, so its worker process
(forked by the process pool) inherits them; each process writes its spans
to ``TRACE_DIR/spans-<pid>.json`` when it exits.
"""

import sys

from tracer import Recorder, write_at_exit

#: Span-name prefixes of the layers a ``plan`` request passes through on
#: the server side.
SERVER_LAYERS = ("serve.", "io.", "geometry.", "network.", "core.", "plan.",
                 "rooted.", "tsp.", "kernels.")


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install(SERVER_LAYERS)
    write_at_exit(recorder, trace_dir, "server")
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
