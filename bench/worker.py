"""One benchmark pass, or one set-up, in a fresh interpreter.

    python3 -I bench/worker.py WORKLOAD SEED MODE TRACED TINY

MODE "setup" imports htype, builds the workload's inputs and reports
when it was done, on the clock that bench/run.py reads before starting
the process.  MODE "pass" goes on to run every op once in a closed
loop, timing each call alone, and then checks the outputs.  With
TRACED=1 the tracer wraps the package's public functions first.  The
result is one JSON object on stdout.

On a shared machine, how fast the same code runs can drift by a third
within a minute.  So while the ops run, a timer
signal times a fixed integer loop every PERIOD_S seconds, and each op
gets, besides its wall time, a reference time: its wall time scaled by
REF_S times the mean loop speed around it.  The loop's own time is
taken out of both.  The loop touches no data, so what it measures is
the speed of the processor, not the state of its caches.  Per-layer
times of a traced pass are scaled over the whole pass and still hold
the loop's time, about 2.5 % of it.
"""

import bisect
import os
import signal
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
LOOP_N = 20000
# What the loop takes on an idle 2.1 GHz Xeon vCPU under CPython 3.11.
# Changing it rescales every reference time, so it stays fixed.
REF_S = 0.00125
PERIOD_S = 0.05
WINDOW_S = 0.25


def loop_time():
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_N):
        total += i * i
    return time.perf_counter() - start


def speed_scale(loop_times):
    """REF_S times the mean loop speed: reference seconds per wall second."""
    return REF_S * statistics.fmean(1 / t for t in loop_times)


class SpeedProbe:
    """Times the fixed loop on a timer signal while it is active."""

    def __init__(self, fallback):
        self.fallback = fallback
        self.starts, self.times = [], []

    def _tick(self, signum, frame):
        self.starts.append(time.perf_counter())
        self.times.append(loop_time())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def times_between(self, start, end):
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self.times[lo:hi]

    def scale(self, start, end):
        """REF_S times the mean loop speed within WINDOW_S of [start, end].

        Samples are evenly spaced in time, so the mean of 1 / loop time
        weights each stretch of the op by how long it lasted, and a loop
        that a context switch stretched counts for little.
        """
        window = self.times_between(start - WINDOW_S, end + WINDOW_S)
        if len(window) < 3:
            window = self.times
        if len(window) < 3:
            return self.fallback
        return speed_scale(window)


def main(argv):
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    traced, tiny = argv[4] == "1", argv[5] == "1"
    sys.path[:0] = [SRC, BENCH]
    import htype
    if not os.path.abspath(htype.__file__).startswith(SRC + os.sep):
        raise SystemExit("htype was imported from %s, not from %s"
                         % (htype.__file__, SRC))
    import workloads
    build, check = workloads.WORKLOADS[workload]
    ops = build(seed, tiny)
    result = {"setup_done": time.monotonic(),
              "scale": speed_scale([loop_time() for _ in range(9)])}
    if mode == "setup":
        return result

    import hashlib
    import resource
    tracer = None
    if traced:
        from htype import (basis_builder, cli, clifford_rep, exactlin, golden,
                           lie_algebra, words)
        from tracer import LAYERS, Tracer
        tracer = Tracer()
        layers = [exactlin, words, clifford_rep, basis_builder, lie_algebra,
                  golden, cli]
        tracer.install(dict(zip(LAYERS, layers)), [htype, workloads])

    outputs, spans = [], []
    with SpeedProbe(result["scale"]) as probe:
        for op_id, op in enumerate(ops):
            if tracer:
                tracer.begin_op(op_id)
            start = time.perf_counter()
            try:
                out = op.call(op.arg)
            except Exception as exc:  # a failed op is counted, not fatal
                out = workloads.OpError(exc)
            end = time.perf_counter()
            if tracer:
                tracer.end_op(op.kind, start, end)
            outputs.append(out)
            spans.append((start, end))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timings = []
    for op, (start, end) in zip(ops, spans):
        wall = end - start - sum(probe.times_between(start, end))
        timings.append([op.key, op.kind, wall, wall * probe.scale(start, end)])
    result["ops"] = timings

    failed, texts = check(ops, outputs)
    digest = hashlib.sha256()
    for key in sorted(texts):
        digest.update(("%s\t%s\n" % (key, texts[key])).encode())
    result["failed"] = failed
    result["sha256"] = digest.hexdigest()
    if tracer:
        origin = spans[0][0] if spans else 0.0
        # Layer times in reference seconds, scaled over the whole pass.
        scale = probe.scale(spans[0][0], spans[-1][1])
        result["layers"] = {
            name: value * scale if name.endswith((".s", ".self_s")) else value
            for name, value in tracer.layer_values().items()}
        result["spans"] = [[name, start - origin, end - origin, parent, op]
                           for name, start, end, parent, op in tracer.spans]
    return result


if __name__ == "__main__":
    import json
    sys.stdout.write(json.dumps(main(sys.argv)) + "\n")
