"""ctseq benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs of the workload are made from
the seed, the reference values are computed, and then the workload runs
in rounds, each a fresh single-threaded worker process
(perfbench/worker.py) that imports ctseq from ./src, until the next
round would end after S seconds (at least two rounds).  The first
round's outputs are checked against the independent reference and the
sequence properties; every later round must reproduce them exactly,
exports byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, or with --trace 1 the per-layer metrics of the traced rounds
(median over rounds), where traced and untraced rounds alternate so that
``trace.overhead_s`` compares like with like.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
ROUND_TIMEOUT = 150  # seconds; a round past this is a failed run
RUN_LIMIT = 170  # never start a round that could end after this

# one BLAS/OpenMP thread per worker, below nproc on any machine
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "terms_per_s": "terms/s",
    "term_deep_ms": "ms",
    "verdicts_per_s": "1/s",
    "automaton_states_per_s": "states/s",
}


def end_to_end(rounds):
    """The end-to-end metrics of a run's untraced rounds.

    Every round runs the same operations.  Each operation is charged its
    fastest time over the rounds, because on a shared host the same code
    runs up to twice as slow when a neighbour is busy, and the minimum of
    several tries is far steadier than their median.  ``setup_s`` (the
    round's set-up operations, each at its fastest repeat within the
    round) and ``peak_rss_mb`` are medians over the rounds.
    """
    best = {}
    for r in rounds:
        for key, (phase, seconds, units) in r["ops"].items():
            old = best.get(key)
            best[key] = (phase, min(seconds, old[1]) if old else seconds, units)

    def total(phase):
        ops = [(s, u) for ph, s, u in best.values() if ph == phase]
        return sum(s for s, _ in ops), sum(u for _, u in ops), len(ops)

    gen_s, terms, _ = total("gen")
    deep_s, _, deep_n = total("deep")
    verdict_s, verdicts, _ = total("verdict")
    auto_s, states, _ = total("auto")
    return {
        "wall_s": sum(s for _, s, _ in best.values()),
        "setup_s": statistics.median(
            sum(s for phase, s, _ in r["ops"].values() if phase == "setup")
            for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024.0,
        "terms_per_s": terms / gen_s,
        "term_deep_ms": 1000.0 * deep_s / deep_n,
        "verdicts_per_s": verdicts / verdict_s,
        "automaton_states_per_s": states / auto_s,
    }


def run_round(spec, spec_path, trace):
    """Run one worker round.

    Returns (summary, outputs, values): the worker's round.json, the
    outputs keyed as the checks expect, and the concatenated integer
    outputs.  Raises RuntimeError when the worker fails.
    """
    out_dir = tempfile.mkdtemp(prefix="round-", dir=OUT)
    try:
        env = dict(os.environ, **PINNED_ENV)
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_dir,
             "1" if trace else "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=ROUND_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError("worker exited with %d:\n%s"
                               % (proc.returncode, proc.stderr[-4000:]))
        with open(os.path.join(out_dir, "round.json")) as f:
            summary = json.load(f)
        values = np.load(os.path.join(out_dir, "values.npy"))
        offsets = summary["offsets"]
        outputs = {k: values[lo:hi] for k, lo, hi in
                   zip(summary["keys"], offsets, offsets[1:])}
        outputs["records"] = summary["records"]
        outputs["exports"] = {}
        for name in summary["exports"]:
            if name.endswith(".walnut"):
                with open(os.path.join(out_dir, name)) as f:
                    outputs["exports"][name] = f.read()
        if trace:
            shutil.copy(os.path.join(out_dir, "spans.json"),
                        os.path.join(OUT, "spans-%s-%d.json"
                                     % (spec["workload"], spec["seed"])))
        return summary, outputs, values
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def fingerprint(summary, values):
    """Digest of everything a round outputs, timings excluded."""
    h = hashlib.sha256(values.tobytes())
    h.update(json.dumps([summary["keys"], summary["offsets"], summary["records"],
                         summary["exports"]], sort_keys=True).encode())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ctseq", "__init__.py")):
        print("error: no ctseq sources at %s" % os.path.join(ROOT, "src", "ctseq"),
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    spec = workloads.make_spec(args.workload, args.seed)
    ref = checks.build_reference(spec)
    spec_path = os.path.join(OUT, "spec-%s-%d.json" % (args.workload, args.seed))
    with open(spec_path, "w") as f:
        json.dump(spec, f)

    plan = [True, False] if args.trace else [False]  # traced?, per cycle
    untraced, traced = [], []
    failures, attempted, expected = [], 0, None
    measure_start = time.perf_counter()
    longest = 0.0
    while True:
        for trace in plan:
            t = time.perf_counter()
            try:
                summary, outputs, values = run_round(spec, spec_path, trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print("error: %s" % exc, file=sys.stderr)
                return 1
            longest = max(longest, time.perf_counter() - t)
            attempted += len(summary["ops"])
            digest = fingerprint(summary, values)
            if expected is None:
                failures.extend(checks.verify(spec, ref, outputs))
                expected = digest
            elif digest != expected:
                failures.append("round %d outputs differ from round 1"
                                % (len(untraced) + len(traced) + 1))
            (traced if trace else untraced).append(summary)
        elapsed = time.perf_counter() - measure_start
        cycle = longest * len(plan)
        rounds = len(untraced) + len(traced)
        if (rounds >= 2 and elapsed + cycle > args.seconds) or \
                time.perf_counter() - start + cycle > RUN_LIMIT:
            break

    if args.trace:
        layers = {}
        for name in tracing.LAYER_METRICS:
            if name != "trace.overhead_s":
                layers[name] = statistics.median(s["layers"][name] for s in traced)
        layers["trace.overhead_s"] = (end_to_end(traced)["wall_s"]
                                      - end_to_end(untraced)["wall_s"])
        metrics = {k: {"value": layers[k], "unit": tracing.LAYER_METRICS[k][0]}
                   for k in tracing.LAYER_METRICS}
    else:
        values = end_to_end(untraced)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for msg in failures[:20]:
        print("check failed: %s" % msg, file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": 0,
              "metrics": metrics}
    with open(os.path.join(OUT, "result-%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(result, rounds=len(untraced) + len(traced),
                       round_ops=[r["ops"] for r in untraced]), f, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
