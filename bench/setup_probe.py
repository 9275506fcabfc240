"""Cold start of one workload, timed from outside by run.py.

    python3 bench/setup_probe.py WORKLOAD SEED TMPDIR

A fresh interpreter imports qsim and finishes one checked warm-up op of the
workload; a failed op or check exits nonzero.
"""

from __future__ import annotations

import sys
from pathlib import Path

import env


def main(argv: list[str]) -> int:
    name, seed, tmp = argv[1], int(argv[2]), Path(argv[3])
    env.use_checkout_sources()
    import workloads

    workload = workloads.WORKLOADS[name]
    case = workload.case(seed, -1, tmp)
    workload.check(case, workload.op(case))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
