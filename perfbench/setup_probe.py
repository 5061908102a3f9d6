"""Set-up probe: one fresh interpreter made ready to run a workload.

``run.py`` spawns this script several times per run and times each copy
from spawn until it prints its ready line: imports, building every cell's
network and optimizer, and — for the fleet workload — starting the
replica fleet and checking its health.  The probe then tears everything
down and exits.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``
"""

from __future__ import annotations

import json
import pathlib
import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import cosearch
    from repro.experiments.harness import build_optimizer

    import_s = time.perf_counter() - start
    workload = cosearch.WORKLOADS[argv[0]]
    cells = cosearch.cells_for(workload, int(argv[1]))
    fleet = None
    engines = []
    try:
        if workload.fleet:
            fleet = cosearch.Fleet([cell.network for cell in cells]).start()
            for cell in cells:
                engine = cosearch.fleet_engine(cell, fleet)
                engines.append(engine)
                cosearch.build_unico(cell, workload.preset, engine=engine)
        else:
            for cell in cells:
                build_optimizer(
                    "unico", cell.scenario, cell.network, workload.preset,
                    seed=cell.seed,
                )
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        for engine in engines:
            engine.close()
        if fleet is not None:
            fleet.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
