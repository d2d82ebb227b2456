"""Run one sqzkit command in-process, with every public function traced.

    python3 perfbench/traced_cli.py SPANS.json expect --scenario deployed

Prints what `sqzkit.cli.main(argv)` prints, exits with its status and writes
the recorded spans to SPANS.json.  The benchmark starts one of these per
traced command, so a traced command is as cold as an untraced one.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from sqzkit import cli

    with Tracer() as tracer:
        status = cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
