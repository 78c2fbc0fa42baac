"""Run one `biharm` command in this fresh interpreter, as the console script does.

Usage: python3 child.py INFO TRACE [biharm-args...]

INFO is a JSON file this writes with the monotonic time at which
`import biharm` returned, so run.py can time interpreter set-up.  With
TRACE = 1 the biharm layers are traced and the spans are written to INFO with
the suffix .npz replacing .json.  The exit code is the command's; with no
command the script only sets up.
"""

import sys
import time

import biharm

SETUP_END = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402

import biharm.cli  # noqa: E402


def main() -> int:
    info, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    with open(info, "w") as fh:
        json.dump({"setup_end": SETUP_END, "biharm": os.path.dirname(biharm.__file__)}, fh)
    if not argv:
        return 0                    # set-up only
    tracer = None
    if trace:
        import tracing  # found next to this script
        tracer = tracing.install()
    try:
        return biharm.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(info[:-len(".json")] + ".npz")


if __name__ == "__main__":
    sys.exit(main())
