"""Self-test of the tracer.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload it makes two traced runs
of run.py on the workload's tuning seed and checks that

- each run is correct, which includes the traced responses being
  byte-identical to the untraced serve responses to the same lines;
- the counts that do not depend on timing repeat exactly in both runs.

It then checks that the transitions the tracer counts for one power-scaling
derivation equal Budget.used after a direct services.derivation call.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

import run
from workloads import PowerScaling, WORKLOADS, encode, scaling_term, wire_state

# counts that must not change when the same lines are traced again
EXACT = (
    "protocol.replay_big_steps",
    "protocol.replay_trace_len",
    "services.allfirsts_calls_per_request",
    "services.derivation_calls_per_request",
    "strategy.transitions_per_request",
    "strategy.check_evals",
    "strategy.check_transitions_share",
    "strategy.check_memo_hit_ratio",
    "strategy.step_calls",
    "strategy.split_calls",
    "navigation.zipper_moves",
    "powers.norm_calls",
)

SCALING_K = 5


def traced_counts(workload):
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", workload.name,
               "--seed", str(workload.tuning_seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(command, cwd=str(run.ROOT), capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    return done.returncode == 0 and result["correct"], {k: metrics[k]["value"] for k in EXACT}


def transitions_agree():
    """Traced transitions of one derivation request against Budget.used."""
    sys.path.insert(0, str(run.SOURCE))
    os.environ["STRATEGEM_BUDGET"] = PowerScaling.budget
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        from strategem import protocol, services
        from strategem.exercise import default_registry
        from strategem.powers import parse
        from strategem.strategy import Budget

        registry = default_registry()
        request = {"service": "derivation", "exercise": "powerExercise",
                   "state": wire_state(scaling_term(SCALING_K))}
        protocol.handle_request(encode(request), registry)
        traced = tracer.counts["ticks"]
    finally:
        tracer.uninstall()
    exercise = registry.lookup("powerExercise")
    budget = Budget()
    services.derivation(exercise, services.initial_state(exercise, parse(scaling_term(SCALING_K))), budget)
    return traced, budget.used


def main():
    ok = True
    for workload in WORKLOADS.values():
        correct_a, first = traced_counts(workload)
        correct_b, second = traced_counts(workload)
        same = first == second
        ok = ok and correct_a and correct_b and same
        print("%s seed %d: traced equals untraced: %s; exact counts repeat: %s"
              % (workload.name, workload.tuning_seed, correct_a and correct_b, same))
        if not same:
            for key in EXACT:
                if first[key] != second[key]:
                    print("  %s: %r then %r" % (key, first[key], second[key]))
    traced, used = transitions_agree()
    print("power-scaling k=%d derivation: traced transitions %d, Budget.used %d"
          % (SCALING_K, traced, used))
    ok = ok and traced == used
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
