"""Regenerate ``bench/references.json``, the stored answers the output checks use.

    python3 bench/make_references.py

For every input slot it stores, per sweep grid point, the mean, standard
error and single-estimate spread of independent Monte-Carlo risk
estimates, and the objective of every tabular library instance.  Rerun only
when a change is meant to alter the answers (not just the random streams),
and say so where the change is described.
"""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main():
    refs = {"sweep": {}, "tabular": {}}
    for slot in range(workloads.N_SLOTS):
        config = dict(workloads.SWEEP_CONFIG, seed=slot)
        refs["sweep"][str(slot)] = workloads.sweep_reference(config)
        refs["tabular"][str(slot)] = {
            name: inst.objective(inst.solve())
            for name, inst in workloads.tabular_instances(slot).items()
        }
        print(f"slot {slot} done", file=sys.stderr, flush=True)
    workloads.REFERENCES_PATH.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
