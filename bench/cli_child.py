"""Run one ddpnkit CLI command as a child of the benchmark harness.

Usage: python3 cli_child.py RECORD_JSON {0,1} -- <ddpnkit arguments>

Imports ddpnkit.cli and notes the monotonic clock when the import is done,
so the harness can take every command's start-up time (spawn to import
done). With 1 it also wraps the layer functions (see tracer.py) and runs
``cli.main`` inside a root span named ``cli.main``. When the command ends it
writes the record (and, traced, the span summary and counters) to
RECORD_JSON. The exit code is the command's own.
"""

import json
import sys
import time


def main() -> int:
    out_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: cli_child.py RECORD_JSON {0,1} -- <ddpnkit arguments>")
    start = time.monotonic()
    from ddpnkit import cli
    imported_at = time.monotonic()
    record = {"imported_at": imported_at, "import_s": imported_at - start}

    tracer, entry = None, cli.main
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)
    try:
        code = entry(argv)
    except SystemExit as exc:  # argparse exits from inside main for --help
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer is not None:
            record.update(spans=tracer.summary(), counters=dict(tracer.counters))
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
