"""Start the query service the way ``repro serve`` does, on the
benchmark's database.

    python3 perfbench/launcher.py --buffer-pages 4 --io-latency 0.0005 \\
        [--trace-out spans.jsonl]

The server listens on an ephemeral port of 127.0.0.1 and prints
``serving ... on HOST:PORT``; a ``shutdown`` request stops it.  Only
the database differs from ``repro serve``: the benchmark's recipe (2
works per composer) and a simulated read latency, which ``repro serve``
has no option for.  With ``--trace-out`` the layers are wrapped in
spans (see :mod:`tracing`), written to that file after shutdown."""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
from workloads import build_database  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--buffer-pages", type=int, required=True)
    parser.add_argument("--io-latency", type=float, default=0.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    recorder = None
    if args.trace_out:
        recorder = tracing.Recorder()
        recorder.install()

    from repro import cli

    def benchmark_database(_cli_args):
        db = build_database(args.buffer_pages)
        db.store.buffer.io_latency = args.io_latency
        return db

    cli._build_database = benchmark_database
    status = cli.main(
        ["serve", "--port", "0", "--buffer-pages", str(args.buffer_pages)]
    )
    if recorder is not None:
        recorder.dump(args.trace_out)
    return status


if __name__ == "__main__":
    sys.exit(main())
