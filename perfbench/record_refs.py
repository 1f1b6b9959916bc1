"""Record the reference data the benchmark's gates compare against.

    python3 perfbench/record_refs.py

Writes ``perfbench/reference/exact.json`` (digests of every exact table and
a_pn triangle the exact-tables workload can ask for) and
``perfbench/reference/figures/<fig>.csv`` (the nine figure files, default
flags).  Run it only on a commit whose outputs are known to be right; the
gates then hold every later commit to them.  No command-line path listed
under "Verified defects" in ROADMAP.md is recorded (see NOTES.md).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from anires import benderwu, borel, cli, model, qm  # noqa: E402
from workloads import (FIGURES, ExactTables, table_digest, triangle_digest,  # noqa: E402
                       wavefunction_digest)


def exact_digests() -> dict:
    refs = {}
    for K in ExactTables.orders:
        state = benderwu.build(K)
        refs[f"benderwu.energy:{K}"] = table_digest(state.energy)
        refs[f"benderwu.A:{K}"] = wavefunction_digest(state.A)
        for sigma in (3, 4):
            refs[f"qm_approximant:{K}:{sigma}"] = triangle_digest(
                qm.qm_approximant(state.energy, K, sigma))
        mc = model.ModelCoefficients.build(K)
        refs[f"model:{K}"] = table_digest(mc.table)
        refs[f"model_approximant:{K}"] = triangle_digest(
            borel.build_approximant(mc.table, K, model.model_large_order_params()))
        if borel.reexpansion_check(qm.qm_approximant(state.energy, K)) != 0:
            raise SystemExit(f"reexpansion residual is not 0 at K={K}; nothing recorded")
    return refs


def main() -> int:
    ref = HERE / "reference"
    (ref / "figures").mkdir(parents=True, exist_ok=True)
    with open(ref / "exact.json", "w") as fh:
        json.dump(exact_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    for fig in FIGURES:
        rc = cli.main(["figures", "--which", fig, "--out", str(ref / "figures" / f"{fig}.csv")])
        if rc != 0:
            raise SystemExit(f"figures --which {fig} exited {rc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
