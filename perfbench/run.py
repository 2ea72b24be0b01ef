"""Closed-loop benchmark of `python -m strategem --mode serve`.

    python3 perfbench/run.py --workload tutor-session --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. One client drives JSON request lines into a
fresh serve process and sends each line only after it has read the response
to the previous one; a request is timed from its line being written to its
response line being read. Every response is checked (see check_unit). With
--trace 1 the run is followed by a traced pass over the same lines in this
process, which reports per-layer figures instead of end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every response
was correct; it is 2 when the program or the recorded answers are missing.
"""

import argparse
import base64
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import powerterms  # noqa: E402
from workloads import SETUP_PROBE, WORKLOADS, encode, unit_stream  # noqa: E402

ROOT = HERE.parent
SOURCE = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

# serve processes started per run, at least; the median of their start-up
# times is setup_s
MIN_SETUP_SAMPLES = 7


def digest(pairs, label):
    """Short hash of a unit's request and response lines, label masked."""
    h = hashlib.sha256()
    for line, response in pairs:
        if label is not None:
            line, response = line.replace(label, "Qz"), response.replace(label, "Qz")
        h.update(line.encode() + b"\n" + response.encode() + b"\n")
    return base64.b64encode(h.digest()[:12]).decode()


def drive(unit, send):
    """Run one unit's conversation; returns [(request, line, response, seconds)]."""
    out = []
    request = next(unit)
    while True:
        line = encode(request)
        response, seconds = send(line)
        out.append((request, line, response, seconds))
        try:
            request = unit.send(response)
        except StopIteration:
            return out


def check_unit(workload, exchanges, label, expected):
    """Indices of the failed requests of one unit, with the reasons.

    A request fails when it answers budget-exceeded or when its derivation
    breaks the oracle; every request of the unit fails when the unit's lines
    differ from the ones recorded in golden.json.
    """
    failed, reasons = set(), []
    for i, (request, line, response, _) in enumerate(exchanges):
        try:
            payload = json.loads(response)
        except ValueError:
            failed.add(i)
            reasons.append("unreadable response to %s" % line[:80])
            continue
        if payload.get("error", {}).get("code") == "budget-exceeded":
            failed.add(i)
            reasons.append("budget-exceeded on %s" % request["service"])
        if request["service"] == "derivation" and "ok" in payload:
            problems = powerterms.check_derivation(
                request["state"]["expr"], payload["ok"]["steps"], workload.final_rules(request))
            if problems:
                failed.add(i)
                reasons.extend(problems)
    got = digest([(line, response) for _, line, response, _ in exchanges], label)
    if got != expected:
        failed.update(range(len(exchanges)))
        reasons.append("responses differ from the recorded ones")
    return failed, reasons


class Serve:
    """One `serve` child. Its set-up time runs from spawning to the answer
    to SETUP_PROBE; its peak RSS is read when it exits."""

    def __init__(self, workload):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SOURCE)
        env.pop("STRATEGEM_BUDGET", None)
        if workload.budget is not None:
            env["STRATEGEM_BUDGET"] = workload.budget
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "strategem", "--mode", "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT), env=env)
        try:
            self.probe_response, _ = self.send(encode(SETUP_PROBE))
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start
        self.peak_rss_mb = None

    def send(self, line):
        start = time.perf_counter()
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        response = self.proc.stdout.readline()
        seconds = time.perf_counter() - start
        if not response:
            raise RuntimeError("serve closed its output")
        return response.decode().rstrip("\n"), seconds

    def close(self):
        """End the child and wait for it; records its peak RSS."""
        self.proc.stdin.close()
        rest = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if rest or self.proc.returncode != 0:
            raise RuntimeError("serve exited with %d" % self.proc.returncode)

    def kill(self):
        """Make sure the child is gone; a no-op after close()."""
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


class Tally:
    def __init__(self, workload, golden):
        self.workload, self.golden = workload, golden
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, index, exchanges, label):
        failed, reasons = check_unit(self.workload, exchanges, label, self.golden["units"][index])
        self.attempted += len(exchanges)
        self.failed += len(failed)
        self.reasons.extend("unit %d: %s" % (index, r) for r in reasons)

    def probe(self, response):
        if digest([(encode(SETUP_PROBE), response)], None) != self.golden["probe"]:
            self.failed += 1
            self.reasons.append("set-up probe answered differently")
        self.attempted += 1


def serve_run(workload, seed, seconds, tally, keep_units):
    """The measured closed loop: serve lifetimes, each answering one pass
    over the corpus, until `seconds` of request time has passed. Returns
    latencies, set-up times, peak RSS per lifetime, measured seconds and the
    first keep_units units' exchanges."""
    stream = unit_stream(workload, seed)
    latencies, setups, rss, kept = [], [], [], []
    measured = 0.0
    while measured < seconds:
        serve = Serve(workload)
        try:
            setups.append(serve.setup_s)
            tally.probe(serve.probe_response)
            done = []
            start = time.perf_counter()
            for _ in range(workload.corpus_size):
                position, index = next(stream)
                unit, label = workload.unit(index, position)
                done.append((index, drive(unit, serve.send), label))
            measured += time.perf_counter() - start
            serve.close()
            rss.append(serve.peak_rss_mb)
            # checked after the clock stops, so checking costs no throughput
            for index, exchanges, label in done:
                tally.add(index, exchanges, label)
                latencies.extend(x[3] for x in exchanges)
                if len(kept) < keep_units:
                    kept.append(exchanges)
        finally:
            serve.kill()
    while len(setups) < MIN_SETUP_SAMPLES:
        serve = Serve(workload)
        try:
            setups.append(serve.setup_s)
            tally.probe(serve.probe_response)
            serve.close()
        finally:
            serve.kill()
    return latencies, setups, rss, measured, kept


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(workload, latencies, setups, rss, measured, tally):
    ordered = sorted(latencies)
    beyond = len(ordered) - math.ceil(workload.tail_percentile / 100.0 * len(ordered))
    return {
        "requests_per_s": (len(latencies) / measured, "1/s"),
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "latency_tail_ms": (nearest_rank(ordered, workload.tail_percentile) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }, {
        "error_share": (tally.failed / tally.attempted, "ratio"),
        "tail_percentile": (workload.tail_percentile, "%"),
        "samples": (len(ordered), "count"),
        "samples_beyond_tail": (beyond, "count"),
        "serve_lifetimes": (len(rss), "count"),
    }


def traced_run(workload, seed, untraced_units, tally):
    """Send the first trace_units units' lines through protocol.handle_request
    in this process with the tracer installed."""
    sys.path.insert(0, str(SOURCE))
    os.environ.pop("STRATEGEM_BUDGET", None)
    if workload.budget is not None:
        os.environ["STRATEGEM_BUDGET"] = workload.budget
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    from strategem import protocol
    from strategem.exercise import default_registry
    registry = default_registry()

    def send(line):
        tracer.request_id += 1
        start = time.perf_counter()
        response = protocol.handle_request(line, registry)
        return response, time.perf_counter() - start

    stream = unit_stream(workload, seed)
    mismatches = 0
    traced_time = untraced_time = 0.0
    requests = 0
    try:
        for n in range(workload.trace_units):
            position, index = next(stream)
            unit, label = workload.unit(index, position)
            exchanges = drive(unit, send)
            tally.add(index, exchanges, label)
            requests += len(exchanges)
            traced_time += sum(x[3] for x in exchanges)
            if n < len(untraced_units):
                before = untraced_units[n]
                untraced_time += sum(x[3] for x in before)
                if [x[1:3] for x in before] != [x[1:3] for x in exchanges]:
                    mismatches += 1
    finally:
        tracer.uninstall()
    if mismatches:
        tally.failed += 1
        tally.reasons.append("%d traced units answered unlike the untraced run" % mismatches)
    return tracer, requests, traced_time, untraced_time


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "strategem" / "protocol.py").is_file():
        print("no program to benchmark: %s is missing" % (SOURCE / "strategem"), file=sys.stderr)
        return 2
    try:
        golden = json.loads(GOLDEN.read_text())[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print("no recorded answers for %s: %s" % (args.workload, exc), file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tally = Tally(workload, golden)
    keep = workload.trace_units if args.trace else 0
    latencies, setups, rss, measured, kept = serve_run(workload, args.seed, args.seconds, tally, keep)
    e2e, extra = end_to_end(workload, latencies, setups, rss, measured, tally)
    for name, (value, unit) in list(e2e.items()) + list(extra.items()):
        print("%s %s = %.6g %s" % (workload.name, name, value, unit))

    metrics = e2e
    if args.trace:
        tracer, requests, traced_time, untraced_time = traced_run(workload, args.seed, kept, tally)
        metrics = tracer.metrics()
        traced_rps = requests / traced_time
        untraced_rps = requests / untraced_time if untraced_time else traced_rps
        metrics["trace.traced_requests_per_s"] = (traced_rps, "1/s")
        metrics["trace.overhead_share"] = ((untraced_rps - traced_rps) / untraced_rps, "ratio")
        for name, (value, unit) in metrics.items():
            print("%s %s = %.6g %s" % (workload.name, name, value, unit))
        OUT.mkdir(exist_ok=True)
        span_file = OUT / ("spans-%s-%d.jsonl" % (workload.name, args.seed))
        count = tracer.write_spans(span_file)
        print("%s spans: %d over %d requests, written to %s"
              % (workload.name, count, requests, span_file.relative_to(ROOT)))
        print("%s tracing overhead: %.4g requests/s untraced, %.4g traced, %.4g fewer (%.1f%%)"
              % (workload.name, untraced_rps, traced_rps, untraced_rps - traced_rps,
                 100 * (untraced_rps - traced_rps) / untraced_rps))
        print("%s layer self time as share of request time: %s" % (workload.name, ", ".join(
            "%s %.1f%%" % (k, 100 * v) for k, v in tracer.layer_shares().items())))
        print("%s phases of request time: %s" % (workload.name, ", ".join(
            "%s %.1f%%" % (k, 100 * v) for k, v in tracer.phases().items())))

    for reason in tally.reasons[:20]:
        print("FAILED %s" % reason)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
