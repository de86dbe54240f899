"""Record the condition-report digests the ``graphs`` workload checks against.

The reports of the ring families are frozen: later changes to the graph
checkers must reproduce them byte for byte.  Run from the repository root
only when the family definitions in ``gen.py`` change:

    python3 bench/record_reports.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import fullgroups as fg  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
from workloads import REPORTS, pin_hash_seed, report_digest  # noqa: E402


def main():
    pin_hash_seed()
    out = {}
    for fam in gen.FAMILIES:
        out[fam] = {}
        for n in gen.FAMILY_SIZES:
            data = gen.family_graph(fam, n)
            report = fg.condition_report(fg.graph_from_json(data))
            want = oracle.verdicts(data)
            got = {k: report[k]["holds"] for k in want}
            if got != want:
                sys.exit(f"{fam} n={n}: report {got} disagrees with the oracle {want}")
            out[fam][str(n)] = report_digest(report)
    with open(REPORTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
