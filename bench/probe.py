"""Setup probe: a fresh process times ``import lerchint`` plus the first operation.

The workload's first operation is built from the seed before the clock
starts; this module and ``workloads`` import only the standard library, so
the library's own import cost (numpy, scipy) falls inside the measurement.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    stream = wl.Stream(args.workload, args.seed)
    first = stream.first()

    t0 = time.perf_counter()
    import lerchint
    import lerchint.constants  # noqa: F401
    import lerchint.identities  # noqa: F401
    import lerchint.lerch  # noqa: F401
    import lerchint.simplex  # noqa: F401

    t1 = time.perf_counter()
    wl.run_op(lerchint, first)
    t2 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "first_op_s": t2 - t1,
        "digest": wl.digest(stream.block(0)),
        "lerchint_file": lerchint.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
