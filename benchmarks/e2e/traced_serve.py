"""Run ``repro serve`` with layer spans recorded.

Usage: ``python benchmarks/e2e/traced_serve.py SPANS.json serve ...``.
``SIGUSR1`` writes the spans recorded so far to ``SPANS.json`` (written
to a temporary name, then renamed), so a server that is about to be
killed can still report; a graceful exit writes them too.
"""

import os
import signal
import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Recorder()
    tracer.install(recorder, server=True)

    def dump(*_: object) -> None:
        recorder.dump(spans_path + ".tmp")
        os.replace(spans_path + ".tmp", spans_path)

    signal.signal(signal.SIGUSR1, dump)
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main())
