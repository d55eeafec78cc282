"""Benchmark for the htype package: four workloads, one command.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from src/ and
nothing is installed.  Load is one caller in a closed loop: a pass runs
the workload's ops one after another in a fresh interpreter, so tables
the program caches in memory never carry over between passes, and the
passes run one at a time.  Passes repeat until --seconds have gone by,
counted in reference time (below), and there are at least three.
Before them, the run starts a few interpreters that only set up, to
time set-up on its own.

Workloads (see bench/workloads.py):
  catalog  every `htype` CLI call a user makes for the 44 signatures
           with r + s <= 8: gen in three formats, match, verify --json
  ladder   derive_table plus verify_htype at module dims 32, 64 and 128
  search   find_involution_system alone for (6,7), (7,7) and (8,7)
  audit    golden loads, seeded sign-change comparisons and one-pair
           sign flips, all checked by verify_htype or compare_tables

Times are reference times (see bench/worker.py): wall time scaled by
how fast a fixed integer loop runs around each op, which takes out the
drift of a shared machine's speed.  The wall times are printed next to
them and kept in the result file; per-layer times are reference times
too.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones and the tracing overhead, and writes the spans to bench/out/.
Every op's output is checked; an op whose output is wrong counts as
failed.  `correct` is false when a pass could not account for its ops:
two passes disagreed on the outputs' digest.  The human readable lines
before the final JSON line add the workload-specific numbers:
verify_all_s (catalog), derive_s.dimN (ladder), fail_ratio and the
sha256 of the outputs.  All of it also goes to a result file in
bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("catalog", "ladder", "search", "audit")
SETUP_LAUNCHES = 7
MIN_PASSES = 3
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "op_ms_p90": "ms", "peak_rss_mb": "MB"}

# Per-layer metrics: timed functions get .s and .self_s, counted ones .calls.
TIMED = ("exactlin.mat_mul", "exactlin.dot_form", "exactlin.column_space_basis",
         "words.word_mul", "clifford_rep.find_involution_system",
         "clifford_rep.build_generators", "clifford_rep.verify_generators",
         "clifford_rep.apply_word", "basis_builder.find_initial_vector",
         "basis_builder.fixed_subspace", "basis_builder.build_basis",
         "lie_algebra.compute_table", "lie_algebra.generate_table",
         "lie_algebra.derive_table", "lie_algebra.verify_htype",
         "lie_algebra.compare_tables", "golden.golden_table",
         "golden.match_generated", "golden.build_n07", "cli.main")
COUNTED = ("exactlin.mat_mul", "exactlin.dot_form", "exactlin.mat_apply",
           "words.word_mul", "words.reduce_mod_system", "words.words_commute",
           "clifford_rep.apply_word", "golden.golden_table")
DERIVED = {"exactlin.mat_mul.madds": "count",
           "clifford_rep.find_involution_system.commute_checks_per_system": "ratio",
           "lie_algebra.compute_table.dot_forms_per_cell": "ratio"}
SOURCES = ("exactlin", "words", "clifford_rep", "basis_builder", "lie_algebra",
           "golden", "cli", "init", "total")
OVERHEAD = ("trace.untraced_ops_per_s", "trace.traced_ops_per_s",
            "trace.overhead_ops_per_s")


def per_layer_units():
    units = {}
    for name in TIMED:
        units[name + ".s"] = "s"
        units[name + ".self_s"] = "s"
    for name in COUNTED:
        units[name + ".calls"] = "count"
    units.update(DERIVED)
    for name in SOURCES:
        units[name + ".src_lines"] = "lines"
    for name in OVERHEAD:
        units[name] = "1/s"
    return units


class BenchError(Exception):
    pass


def launch(args, mode, traced, deadline):
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, "-I", os.path.join(BENCH, "worker.py"), args.workload,
           str(args.seed), mode, "1" if traced else "0", "1" if args.tiny else "0"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
        ended = time.monotonic()
    except subprocess.TimeoutExpired:
        raise BenchError("a %s process ran past the %d s deadline"
                         % (mode, DEADLINE_S)) from None
    if proc.returncode != 0:
        raise BenchError("a %s process failed:\n%s"
                         % (mode, proc.stderr.strip()[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = result["setup_done"] - started
    result["setup"] = (wall, wall * result["scale"])
    result["wall_s"] = ended - started
    return result


def source_lines():
    """Non-blank lines of each module of src/htype; a module gone reads 0."""
    pkg = os.path.join(ROOT, "src", "htype")
    counts = dict.fromkeys(SOURCES, 0)
    for fname in os.listdir(pkg):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as handle:
                lines = sum(1 for line in handle if line.strip())
            name = "init" if fname == "__init__.py" else fname[:-3]
            if name in counts:
                counts[name] = lines
            counts["total"] += lines
    return {name + ".src_lines": n for name, n in counts.items()}


# Columns of a pass's op timings: key, kind, wall seconds, reference seconds.
WALL, REF = 2, 3


def ops_per_s(passes, col=REF):
    return (sum(len(p["ops"]) for p in passes)
            / sum(op[col] for p in passes for op in p["ops"]))


def end_to_end(setups, passes, col):
    seconds = [op[col] for p in passes for op in p["ops"]]
    return {
        "setup_s": statistics.median(s[col - WALL] for s in setups),
        "ops_per_s": ops_per_s(passes, col),
        "op_ms_p50": 1000 * statistics.median(seconds),
        "op_ms_p90": 1000 * statistics.quantiles(
            seconds, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }


def details(passes, col):
    """Workload-specific numbers: median seconds of named op kinds."""
    by_kind = {}
    for p in passes:
        for op in p["ops"]:
            by_kind.setdefault(op[1], []).append(op[col])
    out = {}
    if "verify" in by_kind:
        out["verify_all_s"] = statistics.median(by_kind["verify"])
    for kind in sorted(by_kind, key=lambda k: (len(k), k)):
        if kind.startswith("dim"):
            out["derive_s." + kind] = statistics.median(by_kind[kind])
    return out


def layer_metrics(untraced, traced):
    values = {}
    for name in per_layer_units():
        samples = [p["layers"][name] for p in traced if name in p["layers"]]
        values[name] = statistics.median(samples) if samples else 0
    values.update(source_lines())
    values["trace.untraced_ops_per_s"] = ops_per_s(untraced)
    values["trace.traced_ops_per_s"] = ops_per_s(traced)
    values["trace.overhead_ops_per_s"] = (values["trace.untraced_ops_per_s"]
                                          - values["trace.traced_ops_per_s"])
    return values


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "htype", "__init__.py")):
        raise BenchError("no package at src/htype; run from a full checkout")
    deadline = time.monotonic() + DEADLINE_S
    launch(args, "setup", False, deadline)  # warm-up: writes bytecode caches
    setups = [launch(args, "setup", False, deadline)["setup"]
              for _ in range(SETUP_LAUNCHES)]
    # Passes go on until --seconds of reference time would be overrun by
    # more than half a pass, so the pass count does not follow the drift.
    # At least three, so one slow pass cannot move a median.
    passes, spent = [], 0.0
    while (len(passes) < MIN_PASSES
           or spent + spent / len(passes) / 2 < args.seconds):
        traced = args.trace and len(passes) % 2 == 1
        result = launch(args, "pass", traced, deadline)
        result["traced"] = traced
        passes.append(result)
        spent += result["wall_s"] * (sum(op[REF] for op in result["ops"])
                                     / sum(op[WALL] for op in result["ops"]))
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    setups += [p["setup"] for p in passes]

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    digests = sorted({p["sha256"] for p in passes})
    summary = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "passes": len(untraced), "traced_passes": len(traced),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "failed_ops": sorted({key for p in passes for key in p["failed"]}),
        "outputs_sha256": digests[0] if len(digests) == 1 else digests,
        "python": sys.version.split()[0],
    }
    extra = {}
    if args.trace:
        metrics = layer_metrics(untraced, traced)
        units = per_layer_units()
    else:
        metrics = end_to_end(setups, untraced, REF)
        extra = details(untraced, REF)
        units = END_TO_END
        summary["wall"] = dict(end_to_end(setups, untraced, WALL),
                               **details(untraced, WALL))
    summary.update(extra)
    summary["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d%s" % (args.workload, args.seed,
                                             "-trace" if args.trace else ""))
    with open(stem + ".json", "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    if args.trace:
        with open(stem + "-spans.jsonl", "w") as handle:
            for pass_id, p in enumerate(traced):
                for span in p["spans"]:
                    handle.write(json.dumps([pass_id] + span) + "\n")

    print("workload %s  seed %d  passes %d untraced, %d traced"
          % (args.workload, args.seed, len(untraced), len(traced)))
    wall = summary.get("wall", {})
    rows = [(name, value, units[name]) for name, value in sorted(metrics.items())]
    rows += [(name, value, "s") for name, value in extra.items()]
    for name, value, unit in rows:
        line = "  %-62s %14.6g %-5s" % (name, value, unit)
        if name in wall and unit != "MB":
            line += " (wall %.6g)" % wall[name]
        print(line)
    print("  %-62s %14.6g (%d of %d ops failed)"
          % ("fail_ratio", summary["fail_ratio"], failed, attempted))
    for key in summary["failed_ops"]:
        print("  failed op: %s" % key)
    print("  outputs sha256: %s" % (summary["outputs_sha256"],))
    print("  result file: %s" % os.path.relpath(stem + ".json", ROOT))
    return {
        "correct": len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
