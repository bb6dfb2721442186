"""Start ``repro-diffcost serve`` with the traced run's wrappers.

``python3 perfbench/serve_launcher.py OUT.json serve [serve options]``
installs :func:`tracing.install_serve` in this process (pool workers
fork from it) and runs the CLI.  When the server stops, the recorded
events and the import timestamps are written to ``OUT.json``.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import time

started = time.perf_counter()

from common import require_source  # noqa: E402

require_source()
import repro.cli  # noqa: E402

imported = time.perf_counter()

from tracing import install_serve  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    events: dict[str, list] = collections.defaultdict(list)
    install_serve(events)
    try:
        return repro.cli.main(argv)
    finally:
        with open(out_path, "w") as out:
            json.dump({"pid": os.getpid(), "started": started,
                       "imported": imported, "events": events}, out)


if __name__ == "__main__":
    sys.exit(main())
