"""Server launcher of the ``serve`` workload.

Runs a durable :class:`StoreServer` on a Unix socket until SIGTERM.
Prints ``ready`` on stdout once it accepts connections. With
``--trace-out`` it installs the benchmark's span wrappers before it
serves and writes its spans to that file after the server has closed.

    python3 perfbench/server.py --socket S --wal-dir W [--trace-out F]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    from repro.api.server import StoreServer
    from repro.store.store import DocumentStore

    tracer = None
    if args.trace_out:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    async def serve():
        store = DocumentStore(durability="log", wal_dir=args.wal_dir,
                              group_window=0.0)
        server = StoreServer(store, unix_path=args.socket)
        await server.start()
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        await server.serve_forever()

    asyncio.run(serve())
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
