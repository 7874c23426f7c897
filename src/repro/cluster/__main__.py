"""``python -m repro.cluster`` — run one shard server.

Binds, prints ``SHARD_SERVER_URL=http://host:port`` on stdout (the
:mod:`repro.cluster.launch` helpers read it to learn an ephemeral
port), and serves until terminated.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.cluster.launch import URL_PREFIX
from repro.cluster.shard import ShardServer


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Run one repro shard server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log every request (JSON lines on stderr)",
    )
    options = parser.parse_args(argv)
    if options.verbose:
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    server = ShardServer(
        host=options.host, port=options.port, quiet=not options.verbose
    ).bind()
    print(f"{URL_PREFIX}{server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - manual runs
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
