#!/usr/bin/env python3
"""Record the seed-0 reference outputs that ``run.py`` compares against.

    python3 bench/record_reference.py

Runs every seed-0 command once through ``designkit.cli.main`` and copies
its artifacts to ``bench/reference/<workload>/<command>/``; the mission's
capture times, final position and step count go to
``bench/reference/mission/mission.json``.  Re-record only from a commit
whose outputs are the accepted reference.
"""

import json
import os
import shutil
import sys

from run import OUT, ROOT, call_cli
from workloads import REFERENCE, WORKLOADS, build, mission_reference_run, mission_summary


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    work = OUT / "record"
    shutil.rmtree(work, ignore_errors=True)
    for workload in WORKLOADS:
        if workload == "mission":
            _, log, _ = mission_reference_run(0)
            target = REFERENCE / "mission"
            target.mkdir(parents=True, exist_ok=True)
            (target / "mission.json").write_text(
                json.dumps(mission_summary(log), indent=1) + "\n")
            continue
        for op in build(workload, 0, work):
            code = call_cli(op.argv)
            if code != 0:
                sys.exit(f"{op.name} exited with {code}")
            target = REFERENCE / workload / op.name
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(op.out, target)
            print(target.relative_to(ROOT))
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
