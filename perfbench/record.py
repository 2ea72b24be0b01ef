"""Record the answers every later run is checked against, into golden.json.

    python3 perfbench/record.py

Run from the root of a checkout whose answers are the reference. It sends
every corpus unit of every workload through protocol.handle_request, the
function `serve` answers each line with, and stores a short hash of each
unit's request and response lines. It refuses to record when any response
is an error or a derivation fails the oracle, and it checks that the
author-strategies hashes do not depend on the label a strategy carries.
"""

import json
import os
import sys

import run
from workloads import SETUP_PROBE, WORKLOADS, encode


def main():
    sys.path.insert(0, str(run.SOURCE))
    from strategem import protocol
    from strategem.exercise import default_registry

    registry = default_registry()

    def send(line):
        return protocol.handle_request(line, registry), 0.0

    golden = {}
    problems = []
    for workload in WORKLOADS.values():
        os.environ.pop("STRATEGEM_BUDGET", None)
        if workload.budget is not None:
            os.environ["STRATEGEM_BUDGET"] = workload.budget
        units = []
        for index in range(workload.corpus_size):
            unit, label = workload.unit(index, 0)
            exchanges = run.drive(unit, send)
            units.append(run.digest([x[1:3] for x in exchanges], label))
            for request, line, response, _ in exchanges:
                if '"error":' in response:
                    problems.append("%s unit %d: %s -> %s" % (workload.name, index, line[:120], response))
            _, reasons = run.check_unit(workload, exchanges, label, units[-1])
            problems.extend("%s unit %d: %s" % (workload.name, index, r) for r in reasons)
            if label is not None:
                other_unit, other_label = workload.unit(index, 987654321)
                other = run.drive(other_unit, send)
                if run.digest([x[1:3] for x in other], other_label) != units[-1]:
                    problems.append("%s unit %d depends on its label" % (workload.name, index))
        probe = encode(SETUP_PROBE)
        golden[workload.name] = {"probe": run.digest([(probe, send(probe)[0])], None),
                                 "units": units}
        print("%s: %d units" % (workload.name, len(units)))
    if problems:
        print("\n".join(problems[:50]))
        print("not recorded: %d problems" % len(problems))
        return 1
    run.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
