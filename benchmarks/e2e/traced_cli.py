"""Run one ``repro`` CLI command with layer spans recorded.

Usage: ``python benchmarks/e2e/traced_cli.py SPANS.json check ...``.
The spans are written to ``SPANS.json`` when the command returns.
"""

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Recorder()
    tracer.install(recorder, server=False)
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
