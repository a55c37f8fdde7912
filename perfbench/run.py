"""miflab benchmark runner.

    python3 perfbench/run.py --workload {tables,drive,lab,grig} --seed N \
        --seconds S --trace {0,1}

Every repetition runs in a fresh interpreter (worker.py), so no window
table, `instance()` registry or Grigorchuk `lru_cache` carries over, and
the peak resident memory is that repetition's own.  `MIFLAB_CACHE` is
removed from the environment; each repetition gets a fresh temp
directory under `.perfbench/` in the checkout, deleted afterwards.

A run first starts one unmeasured worker (it proves the checkout imports
and leaves the bytecode cache warm, as an installed CLI has it), then
repetitions while the next one is expected to end within `--seconds`.
Untraced, each repetition is preceded by a set-up-only worker, so
`setup_s` has twice as many samples, spread over the run.  Each timing
is reported as the median over the run's samples.

The run keeps itself and its workers on one CPU.  Every timed span is
rescaled by the host speed measured before, during and after it on that
CPU (calibrate.py), so the reported seconds are those of a host of
fixed speed and a slow period of a shared host does not show as a
change of the program.  The raw medians are in the detail record.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced repetitions and prints the per-layer metrics, with the tracing
overhead as traced minus untraced `wall_s`.  Traced spans are written to
`.perfbench/traces/`.

The second-to-last stdout line is a detail record (all samples, the
highest percentile with ten samples beyond it, phase medians,
fingerprints, failures).  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.  A repetition that cannot
start or crashes ends the run with exit code 2 and no result line.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(ROOT, ".perfbench")
TRACES = os.path.join(SCRATCH, "traces")

WORKLOADS = ("tables", "drive", "lab", "grig")
RUN_LIMIT_S = 170.0  # a run must end within 180 s

LAYERS = (
    "presentations", "coset_enum", "limit_group", "mixed_words",
    "parser", "mif_search", "identity_lab", "grigorchuk",
)


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("MIFLAB_CACHE", None)
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its start time."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *map(str, args)],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(map(str, args))} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), start


def normalized(raw: float, unit_s: float) -> float:
    """`raw` seconds at the host speed where a calibration chunk takes
    `calibrate.REFERENCE_S` (`unit_s` is what it took around `raw`)."""
    return raw * calibrate.REFERENCE_S / unit_s


def setup_sample(result: dict, started: float, unit_before: float) -> tuple[float, float]:
    """(raw set-up seconds, mean calibration chunk around them)."""
    return result["setup_done"] - started, (unit_before + result["setup_calibration"]) / 2


def phase_times(result: dict) -> dict:
    return {p: normalized(t, result["calibration"][p]) for p, t in result["phases"].items()}


def verify_time(phases: dict) -> float:
    return sum(v for k, v in phases.items() if k != "wall")


def high_percentile(samples):
    """Highest whole percentile with at least ten samples above it (nearest
    rank), or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return {"pct": pct, "value": sorted(samples)[rank - 1]}


def summarize(samples) -> dict:
    return {
        "median": statistics.median(samples),
        "n": len(samples),
        "high_percentile": high_percentile(samples),
        "samples": samples,
    }


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(trace: dict, outcomes: dict) -> dict:
    names, counts = trace["names"], trace["counts"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def outer(*ns):
        return sum(names.get(n, {}).get("outer_s", 0.0) for n in ns)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_outer = trace["layer_outer_s"]
    layer_self = {}
    for per_layer in trace["phase_self_s"].values():
        for layer, secs in per_layer.items():
            layer_self[layer] = layer_self.get(layer, 0.0) + secs
    cosets = counts.get("coset_enum.cosets", 0)
    candidates = counts.get("mif_search.candidates_tried", 0)
    substitutions = counts.get("identity_lab.substitutions", 0)
    m = {
        "presentations.build_s": (layer_outer.get("presentations", 0.0), "s"),
        "presentations.relators": (counts.get("presentations.relators", 0), "count"),
        "coset_enum.enumerate_s": (layer_outer.get("coset_enum", 0.0), "s"),
        "coset_enum.cosets": (cosets, "count"),
        "coset_enum.cosets_per_s": (ratio(cosets, layer_outer.get("coset_enum", 0.0)), "1/s"),
        "coset_enum.table_bytes_computed": (counts.get("coset_enum.table_bytes_computed", 0), "bytes"),
        "limit_group.tables_built": (counts.get("limit_group.tables_built", 0), "count"),
        "limit_group.tables_loaded": (counts.get("limit_group.tables_loaded", 0), "count"),
        "limit_group.table_for_width_self_s": (
            names.get("limit_group.LimitGroup.table_for_width", {}).get("self_s", 0.0), "s",
        ),
        "limit_group.canonical_calls": (counts.get("limit_group.LimitGroup.canonical_aword", 0), "count"),
        "limit_group.is_trivial_calls": (counts.get("limit_group.GElement.is_trivial", 0), "count"),
        "limit_group.mul_calls": (counts.get("limit_group.GElement.__mul__", 0), "count"),
        "mixed_words.reduce_calls": (calls("mixed_words.reduce"), "count"),
        "mixed_words.reduce_s": (outer("mixed_words.reduce"), "s"),
        "mixed_words.evaluate_calls": (calls("mixed_words.evaluate"), "count"),
        "mixed_words.evaluate_s": (outer("mixed_words.evaluate"), "s"),
        "parser.parse_calls": (calls("parser.parse_mixed_word"), "count"),
        "parser.parse_s": (layer_outer.get("parser", 0.0), "s"),
        "mif_search.enumerate_words_s": (outer("mif_search.enumerate_words"), "s"),
        "mif_search.find_witness_s": (outer("mif_search.find_witness"), "s"),
        "mif_search.find_witness_calls": (calls("mif_search.find_witness"), "count"),
        "mif_search.candidates_tried": (candidates, "count"),
        "mif_search.witness_yield": (
            ratio(counts.get("mif_search.witnesses_found", 0), candidates), "ratio",
        ),
        "mif_search.drive_self_s": (names.get("mif_search.drive", {}).get("self_s", 0.0), "s"),
        "mif_search.write_s": (outer("mif_search.write_certificates"), "s"),
        "mif_search.verify_certificates_s": (outer("mif_search.verify_certificates"), "s"),
        "identity_lab.product_build_s": (
            outer("identity_lab.direct_product", "identity_lab.wreath_product"), "s",
        ),
        "identity_lab.product_table_bytes_computed": (
            counts.get("identity_lab.product_table_bytes_computed", 0), "bytes",
        ),
        "identity_lab.verdict_s": (
            outer("identity_lab.is_mixed_identity", "identity_lab.factorial_identity_check"), "s",
        ),
        "identity_lab.verdicts": (counts.get("identity_lab.verdicts", 0), "count"),
        "identity_lab.substitutions": (substitutions, "count"),
        "identity_lab.substitutions_per_s": (
            ratio(substitutions, outer("identity_lab.is_mixed_identity")), "1/s",
        ),
        "identity_lab.refusals": (counts.get("identity_lab.refusals", 0), "count"),
        "grigorchuk.identity_word_s": (outer("grigorchuk.grig_identity_word"), "s"),
        "grigorchuk.solve_s": (outer("grigorchuk.is_trivial"), "s"),
        "grigorchuk.words_checked": (counts.get("grigorchuk.words_checked", 0), "count"),
        "grigorchuk.oracle_s": (outer("grigorchuk.acts_trivially_to_depth"), "s"),
        "grigorchuk.oracle_calls": (calls("grigorchuk.acts_trivially_to_depth"), "count"),
        "grigorchuk.disagreements": (outcomes.get("disagreements", 0), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    m["trace.spans"] = (trace["spans"], "count")
    return m


# -- the run -------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: str):
    """Start workers while the next one is expected to end within `seconds`.

    Returns the set-up samples as (raw seconds, calibration chunk) pairs
    and the repetitions as (traced, result)
    pairs.  A traced run alternates traced and untraced repetitions,
    starting with a traced one, and makes at least three, so that two
    traced repetitions can be compared; its set-up samples are those of
    the untraced repetitions.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spawn([workload, seed, tmp, "--setup-only"], deadline)
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        for old in glob.glob(os.path.join(TRACES, f"{workload}-*")):
            os.remove(old)
    setup = []
    reps = []
    took = {True: [], False: []}
    while True:
        k = len(reps)
        traced = trace and k % 2 == 0
        if k >= (3 if trace else 1):
            expected = statistics.median(took[traced] or took[not traced])
            if time.monotonic() - start + expected > seconds:
                return setup, reps
        begin = time.monotonic()
        if not trace:
            unit_s = calibrate.timed_chunks()
            probe, t0 = spawn([workload, seed, tmp, "--setup-only"], deadline)
            setup.append(setup_sample(probe, t0, unit_s))
        rep_tmp = tempfile.mkdtemp(prefix=f"rep{k}-", dir=tmp)
        args = [workload, seed, rep_tmp]
        if traced:
            args += ["--trace", os.path.join(TRACES, f"{workload}-seed{seed}-run{k}.jsonl.gz"), k]
        unit_s = calibrate.timed_chunks()
        result, t0 = spawn(args, deadline)
        took[traced].append(time.monotonic() - begin)
        shutil.rmtree(rep_tmp)
        if not traced:
            setup.append(setup_sample(result, t0, unit_s))
        reps.append((traced, result))


def report(workload: str, seed: int, setup: list, reps: list) -> tuple[dict, dict]:
    """The detail record and the result line of one run."""
    results = [r for _, r in reps]
    untraced = [r for traced, r in reps if not traced]
    traced = [r for t, r in reps if t]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [msg for r in results for msg in r["failures"]][:10]
    fingerprints = sorted({r["fingerprint"] for r in results})
    if len(fingerprints) > 1:
        problems.append("repetitions disagree on their outcomes (determinism fingerprint)")

    phases = [phase_times(r) for r in untraced]
    wall = [p["wall"] for p in phases]
    series = {
        "setup_s": [normalized(raw, unit_s) for raw, unit_s in setup],
        "wall_s": wall,
        "verify_s": [verify_time(p) for p in phases],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    raw = {
        "setup_s": statistics.median(raw for raw, _ in setup),
        "wall_s": statistics.median(r["phases"]["wall"] for r in untraced),
        "verify_s": statistics.median(verify_time(r["phases"]) for r in untraced),
    }
    units_s = [u for _, u in setup] + [u for r in results for u in r["calibration"].values()]
    units = {"setup_s": "s", "wall_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
    detail = {
        "workload": workload,
        "seed": seed,
        "repetitions": len(reps),
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": problems,
        "fingerprints": fingerprints,
        "certificate_log_sha256": sorted(
            {r["outcomes"]["certificate_log_sha256"] for r in results
             if "certificate_log_sha256" in r["outcomes"]}
        ),
        "phases_s": {p: statistics.median(t[p] for t in phases) for p in phases[0]},
        "end_to_end": {name: summarize(vals) for name, vals in series.items()},
        "raw_median_s": raw,
        "calibration_chunk_s": {"median": statistics.median(units_s), "reference": calibrate.REFERENCE_S},
    }
    if traced:
        per_rep = [layer_metrics(r["trace"], r["outcomes"]) for r in traced]
        counters = [name for name, (_, unit) in per_rep[0].items() if unit in ("count", "bytes")]
        if any(m[name] != per_rep[0][name] for m in per_rep for name in counters):
            problems.append("traced repetitions disagree on their counters")
        metrics = {
            name: {
                "value": value if name in counters else statistics.median(m[name][0] for m in per_rep),
                "unit": unit,
            }
            for name, (value, unit) in per_rep[0].items()
        }
        traced_wall = statistics.median(phase_times(r)["wall"] for r in traced)
        metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(wall), "unit": "s"}
        detail["traced_wall_s"] = traced_wall
        detail["counters"] = {name: per_rep[0][name][0] for name in counters}
        detail["self_s_by_phase"] = self_time_by_phase(traced)
    else:
        metrics = {
            name: {"value": statistics.median(vals), "unit": units[name]}
            for name, vals in series.items()
        }
    return detail, {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def self_time_by_phase(traced: list) -> dict:
    """Median self time per phase and layer over the traced repetitions."""
    keys = sorted({(p, l) for r in traced for p, d in r["trace"]["phase_self_s"].items() for l in d})
    out: dict = {}
    for p, l in keys:
        out.setdefault(p, {})[l] = statistics.median(
            r["trace"]["phase_self_s"].get(p, {}).get(l, 0.0) for r in traced
        )
    return out


def pin_to_one_cpu() -> None:
    """Keep the run and the workers it starts (they inherit the affinity)
    on one CPU, so that a calibration chunk runs where its span ran."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        setup, reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    detail, result = report(args.workload, args.seed, setup, reps)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
