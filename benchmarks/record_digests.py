"""Record the seed-independent digest of every operation's ``entries``.

    python3 benchmarks/record_digests.py

Runs each workload once at seed 0, at both sizes, and rewrites digests.json.
Run it only at a commit whose outputs are known to be right: the benchmark
treats these digests as the expected results.
"""

from __future__ import annotations

import json
import sys

import checks
import run


def main() -> int:
    wl = run._import_program()
    import workloads

    found = {}
    for size in workloads.SIZES:
        for name in workloads.WHY:
            for op in workloads.build(name, 0, size).ops:
                res = run.execute(op, wl)
                pairs = res.entries if res.entries is not None else \
                    [(e["value"], e["count"]) for e in json.loads(res.out)["entries"]]
                found[op.key] = checks.digest(pairs)
    checks.DIGESTS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
