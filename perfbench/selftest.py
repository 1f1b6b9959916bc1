"""Self-test of the benchmark: smoke items, gate trips and determinism.

    python3 perfbench/selftest.py

* Smoke: one small item per workload runs and passes its gate.
* Negative cases: each gate trips on a perturbed output (a resummed value
  scaled by 1 + 1e-6, one exact table entry moved by 1/10**30, a nonzero
  reexpansion residual, an Omega moved off its stationary point, one changed
  byte in a figure CSV).
* Determinism: one seed gives identical inputs and outputs twice; another
  seed gives other inputs.

Prints one line per case and exits 0 only if every case behaves.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import types
from fractions import Fraction

import run
from workloads import WORKLOADS, GateError, _expect_zero_residual

FAILED = []


def report(ok: bool, case: str, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {case}{': ' + detail if detail else ''}")
    if not ok:
        FAILED.append(case)


def items_of(workload, api, state, seed, index=0):
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    return workload.pass_items(api, state, rng)


def pick(items, prefix):
    return next(item for item in items if item.label.startswith(prefix))


def run_item(item):
    out = item.run()
    return out, item.check(out)


def move_chosen(result, rel):
    """The result with its chosen Omega moved by the relative amount ``rel``."""
    cands = list(result.candidates)
    cands[result.chosen] = dataclasses.replace(cands[result.chosen], omega=result.omega * (1 + rel))
    return dataclasses.replace(result, candidates=tuple(cands))


def must_trip(case, check, out) -> None:
    try:
        check(out)
    except GateError as exc:
        report(True, case, f"tripped ({exc})")
    else:
        report(False, case, "gate did not trip")


def smoke_and_gates(api, refs, out_dir, seed):
    summaries = {}

    w = WORKLOADS["exact-tables"](refs, out_dir)
    items = items_of(w, api, None, seed)
    mc_item = pick(items, "ModelCoefficients.build")
    group = items[items.index(mc_item) - 1: items.index(mc_item) + 5]
    mc, summary = run_item(mc_item)
    ma_item = pick(group, "build_approximant model")
    summaries["exact-tables"] = [summary, run_item(ma_item)[1],
                                 run_item(pick(group, "reexpansion_check model"))[1]]
    report(True, "smoke exact-tables", "; ".join(summaries["exact-tables"]))
    entries = dict(mc.table.items())
    entries[(7, 3)] += Fraction(1, 10**30)
    perturbed = api.series.CoefficientTable(entries, mc.table.kmax)
    must_trip("gate exact-tables table entry + 1/10**30", mc_item.check,
              types.SimpleNamespace(table=perturbed))
    must_trip("gate exact-tables reexpansion residual 1/10**30", _expect_zero_residual,
              Fraction(1, 10**30))

    w = WORKLOADS["resum-cold"](refs, out_dir)
    item = items_of(w, api, w.setup(api), seed)[0]
    (e, z, zr), summary = run_item(item)
    summaries["resum-cold"] = [summary]
    report(True, f"smoke resum-cold {item.label}", summary)
    must_trip("gate resum-cold qm value * (1 + 1e-6)", item.check, (e * (1 + 1e-6), z, zr))
    must_trip("gate resum-cold model value * (1 + 1e-6)", item.check, (e, z * (1 + 1e-6), zr))

    w = WORKLOADS["vpt-scan"](refs, out_dir)
    items = items_of(w, api, w.setup(api), seed)
    crit = pick(items, "vpt_energy k=11 gbar=1/10 d=1/2")
    summaries["vpt-scan"] = []
    # W is very flat at the criterion-02 cell's chosen Omega: a shift of 1e-6
    # changes dW/dOmega by only 7e-11 of its term scale there.
    for item, rel in ((pick(items, "vpt_energy k=1 "), 1e-6), (crit, 1e-4)):
        result, summary = run_item(item)
        summaries["vpt-scan"].append(summary)
        report(True, f"smoke vpt-scan {item.label}", summary)
        must_trip(f"gate vpt-scan Omega * (1 + {rel:g}) at {item.label}", item.check,
                  move_chosen(result, rel))
    must_trip("gate vpt-scan criterion-02 cell with two candidates", crit.check,
              dataclasses.replace(result, candidates=result.candidates[:2], chosen=0))
    must_trip("gate vpt-scan empty candidate list", crit.check,
              dataclasses.replace(result, candidates=()))
    for item in items:
        result = item.run()
        if result.kind == "turning_point":
            must_trip(f"gate vpt-scan turning point Omega * (1 + 1e-6) at {item.label}",
                      item.check, move_chosen(result, 1e-6))
            break
    else:
        report(False, "gate vpt-scan turning point", f"none in pass 0 of seed {seed}")

    w = WORKLOADS["paper-figures"](refs, out_dir)
    item = pick(items_of(w, api, None, seed), "figures --which fig1")
    out, summary = run_item(item)
    summaries["paper-figures"] = [summary]
    report(True, "smoke paper-figures fig1", summary)
    path = f"{out_dir}/fig1.csv"
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    at = data.index(b"\n") + 1  # first byte of the first data row
    data[at] = ord("7") if data[at] != ord("7") else ord("8")
    with open(path, "wb") as fh:
        fh.write(data)
    must_trip("gate paper-figures one changed byte", item.check, out)
    return summaries


def determinism(api, refs, out_dir):
    for name, cls in WORKLOADS.items():
        w = cls(refs, out_dir)
        state = w.setup(api)
        labels = [[item.label for item in items_of(w, api, state, seed)] for seed in (7, 7, 8)]
        report(labels[0] == labels[1], f"determinism {name}: seed 7 twice gives the same inputs")
        report(labels[0] != labels[2], f"determinism {name}: seed 8 gives other inputs")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    refs = run.load_references()
    out_dir = run.OUT / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        api = run.fresh_import()
        first = smoke_and_gates(api, refs, str(out_dir), seed=7)
        again = smoke_and_gates(run.fresh_import(), refs, str(out_dir), seed=7)
        report(first == again, "determinism: smoke outputs repeat for one seed")
        determinism(api, refs, str(out_dir))
    finally:
        for path in out_dir.glob("*"):
            path.unlink()
        out_dir.rmdir()
    print(f"{'FAIL' if FAILED else 'PASS'} selftest: {len(FAILED)} case(s) failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
