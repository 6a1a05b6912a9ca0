"""One workload round in a fresh process: import ctseq, run, save outputs.

Usage: worker.py SPEC_JSON OUT_DIR TRACE

The process first pins itself to one CPU (see pin_to_fastest_cpu); the
clock then starts before ``import ctseq``, so ``setup`` includes the
import.  Outputs go to OUT_DIR: ``round.json`` (timings, counts,
records, export digests), ``values.npy`` with every integer output
concatenated (offsets in round.json), one file per automaton export,
and, when traced, ``spans.json``.  ``round.json`` holds the time of
every operation; the import of ctseq is the operation ``import``.
"""

import hashlib
import json
import os
import resource
import sys
import time

import workloads


def _probe(rounds=3, n=60_000):
    """Fastest time of a fixed pure-Python loop on the current CPU."""
    best = float("inf")
    for _ in range(rounds):
        t = time.perf_counter()
        x = 0
        for j in range(n):
            x += j * j
        best = min(best, time.perf_counter() - t)
    return best


def pin_to_fastest_cpu():
    """Pin this process to the allowed CPU that runs a probe loop fastest.

    On a shared host one virtual CPU can run the same code several times
    slower than the other while a neighbour is busy on its sibling, and
    the scheduler cannot see that.  A few milliseconds of probing before
    the clock starts keeps such a CPU out of the measurement.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = _probe()
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def peak_rss_kb():
    """High-water RSS of this process image, from /proc/self/status.

    getrusage's ru_maxrss is not used: Linux carries it over from the
    parent across fork and exec, so it would report run.py's memory.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    spec_path, out_dir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(spec_path) as f:
        spec = json.load(f)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    pin_to_fastest_cpu()
    t0 = time.perf_counter()
    import ctseq
    import ctseq.engines  # the package does not import its engines module

    imported = time.perf_counter()

    if not os.path.abspath(ctseq.__file__).startswith(src + os.sep):
        raise SystemExit("imported ctseq from %s, not from %s" % (ctseq.__file__, src))
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install(ctseq)
    rnd = workloads.Round(spec.get("repeats", {}))
    rnd.ops["import"] = ["setup", imported - t0, 0]
    workloads.run(ctseq, spec, rnd)
    rss_kb = peak_rss_kb()

    import numpy as np

    keys = sorted(rnd.arrays)
    offsets = [0]
    for k in keys:
        offsets.append(offsets[-1] + len(rnd.arrays[k]))
    values = np.zeros(offsets[-1], dtype=np.int64)
    for k, lo, hi in zip(keys, offsets, offsets[1:]):
        values[lo:hi] = rnd.arrays[k]
    np.save(os.path.join(out_dir, "values.npy"), values)
    exports = {}
    for name, text in sorted(rnd.exports.items()):
        data = text.encode()
        exports[name] = hashlib.sha256(data).hexdigest()
        with open(os.path.join(out_dir, name), "wb") as f:
            f.write(data)
    summary = {
        "rss_kb": rss_kb,
        "ops": rnd.ops,
        "keys": keys,
        "offsets": offsets,
        "records": rnd.records,
        "exports": exports,
    }
    if tracer is not None:
        letters, prefix_len = tracer.stream_sizes()
        summary["layers"] = tracing.summarize(tracer.spans, tracer.counts,
                                              letters, prefix_len)
        with open(os.path.join(out_dir, "spans.json"), "w") as f:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "spans": tracer.spans, "counts": tracer.counts}, f)
    with open(os.path.join(out_dir, "round.json"), "w") as f:
        json.dump(summary, f)


if __name__ == "__main__":
    main()
