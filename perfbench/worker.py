"""One repetition of a workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand.  Imports miflab from the
checkout's `src/`, generates the workload's inputs from the seed, runs
the workload, and prints one JSON line with the phase timings (each with
the host speed measured while it ran, see calibrate.py), the check tally,
the determinism fingerprint, the peak resident memory and, when tracing,
the tracer's summary.

    python3 perfbench/worker.py WORKLOAD SEED TMPDIR [--setup-only]
        [--trace SPANS_FILE RUN_ID]
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

import calibrate

# the script's own directory is already on sys.path (tracer, workloads)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

MAX_FAILURE_MESSAGES = 5


class Context:
    """What a workload sees: its temp dir, phase timer and check tally."""

    def __init__(self, tmp: str, tracer=None):
        self.tmp = tmp
        self.tracer = tracer
        self.phases: dict[str, float] = {}
        self.calibration: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextmanager
    def phase(self, name: str):
        sampler = calibrate.Sampler()
        started = sampler.start()
        if self.tracer is not None:
            self.tracer.phase = name
            self.tracer.open(f"bench.{name}")
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.close()
            self.phases[name] = sampler.stop(started)
            self.calibration[name] = sampler.unit_s

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def fail_many(self, n: int, what: str) -> None:
        self.tally(n, n, what)

    def attempt(self, what: str, fn) -> None:
        """Run one operation; an unexpected exception counts as a failure."""
        try:
            ok = bool(fn())
        except Exception as exc:
            ok = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        self.check(ok, what)


def main(argv) -> int:
    workload, seed, tmp = argv[0], int(argv[1]), argv[2]
    setup_only = "--setup-only" in argv
    spans_file = run_id = None
    if "--trace" in argv:
        at = argv.index("--trace")
        spans_file, run_id = argv[at + 1], int(argv[at + 2])

    import miflab

    if not os.path.abspath(miflab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"miflab was imported from {miflab.__file__}, not from {SRC}")

    tracer = None
    if spans_file is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    import workloads

    make_inputs, run = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed)
    setup_done = time.monotonic()
    setup_calibration = calibrate.timed_chunks()
    if setup_only:
        print(json.dumps({"setup_done": setup_done, "setup_calibration": setup_calibration}))
        return 0

    ctx = Context(tmp, tracer)
    outcomes = run(inputs, ctx)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fingerprint = hashlib.sha256(
        json.dumps(
            {"outcomes": outcomes, "attempted": ctx.attempted, "failed": ctx.failed},
            sort_keys=True,
        ).encode()
    ).hexdigest()
    result = {
        "setup_done": setup_done,
        "setup_calibration": setup_calibration,
        "phases": ctx.phases,
        "calibration": ctx.calibration,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "fingerprint": fingerprint,
        "outcomes": outcomes,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_file, run_id)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
