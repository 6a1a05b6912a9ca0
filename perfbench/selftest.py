"""Self-test: the checks accept a real round and reject one altered term.

    python3 perfbench/selftest.py

Runs one untraced round of univariate-engines (seed 0) and of
classify-automata (seed 0), confirms that the checks pass on the real
outputs, then alters a single value at a time (an engine term, a deep
term, one state output of an exported walnut automaton, a scan witness)
and confirms that each alteration is reported.  The property checks of
long-prefix are tried on reference prefixes with one term changed.
Exits 0 when every alteration is caught.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import checks
import reference as R
import run
import workloads


def _round(name):
    spec = workloads.make_spec(name, 0)
    os.makedirs(run.OUT, exist_ok=True)
    path = os.path.join(run.OUT, "spec-selftest-%s.json" % name)
    with open(path, "w") as f:
        json.dump(spec, f)
    _, outputs, _ = run.run_round(spec, path, False)
    os.remove(path)
    return spec, checks.build_reference(spec), outputs


def _altered(outputs, key, index):
    out = dict(outputs)
    seq = out[key].copy()
    seq[index] = seq[index] + 1
    out[key] = seq
    return out


def _bump_walnut_output(text, state):
    """The same automaton text with one state's output changed."""
    blocks = text.split("\n\n")
    head, rest = blocks[state + 1].split("\n", 1)
    sid, value = head.split()
    blocks[state + 1] = "%s %d\n%s" % (sid, int(value) + 1, rest)
    return "\n\n".join(blocks)


def main():
    results = []

    def expect(label, fails, caught):
        ok = bool(fails) == caught
        results.append(ok)
        print("%-58s %s" % (label, "ok" if ok else "NOT OK: %s" % fails[:3]))

    spec, ref, outputs = _round("univariate-engines")
    expect("univariate-engines: real outputs pass",
           checks.verify(spec, ref, outputs), caught=False)
    expect("univariate-engines: one linrep term altered",
           checks.verify(spec, ref, _altered(outputs, "seq/2/3/2/linrep", 417)),
           caught=True)
    expect("univariate-engines: one dfao-reverse term altered",
           checks.verify(spec, ref, _altered(outputs, "seq/5/5/3/dfao-reverse", 999)),
           caught=True)
    expect("univariate-engines: one deep term altered",
           checks.verify(spec, ref, _altered(outputs, "deep/6/2/3", 1)), caught=True)
    bad = dict(outputs, exports=dict(outputs["exports"]))
    key = "auto-2-3-2.reverse.walnut"
    bad["exports"][key] = _bump_walnut_output(bad["exports"][key], 1)
    expect("univariate-engines: one walnut state output altered",
           checks.verify(spec, ref, bad), caught=True)

    spec, ref, outputs = _round("classify-automata")
    expect("classify-automata: real outputs pass",
           checks.verify(spec, ref, outputs), caught=False)
    bad = copy.deepcopy(outputs)
    item = next(it for it in bad["records"]["scan"] if it["status"] == "witness")
    item["witness"] += 1
    expect("classify-automata: one scan witness not the least zero",
           checks.verify(spec, ref, bad), caught=True)
    bad = copy.deepcopy(outputs)
    bad["records"]["verdict/motzkin/7"]["zero_witness"] = None
    expect("classify-automata: one verdict witness dropped",
           checks.verify(spec, ref, bad), caught=True)

    catalan = [v % 32 for v in R.catalan(4096)]
    motzkin = [v % 8 for v in R.motzkin(4096)]
    expect("Catalan parity property holds on the reference",
           [] if R.catalan_odd_iff_pow2(catalan) else ["fails"], caught=False)
    catalan[1000] += 1
    expect("Catalan parity property: one term altered",
           [] if R.catalan_odd_iff_pow2(catalan) else ["fails"], caught=True)
    expect("Motzkin mod 8 property holds on the reference",
           [] if R.motzkin_never_zero_mod8(motzkin) else ["fails"], caught=False)
    motzkin[2000] = 0
    expect("Motzkin mod 8 property: one term set to 0",
           [] if R.motzkin_never_zero_mod8(motzkin) else ["fails"], caught=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
