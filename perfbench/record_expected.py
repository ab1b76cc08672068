"""Record the report fields the benchmark compares against.

    python3 perfbench/record_expected.py

Run from the root of a checkout.  It runs every fixed claim and the
sweep_warm batch of the default seed in this process and writes
perfbench/expected.json.  Re-record only when a change of verdicts or
defects is intended, and say so in the change that does it.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import child
import workloads as wl

def main() -> int:
    el = child.import_eisenlab()
    claims = (wl.CLAIMS_COLD + [wl.HECKE_L10]
              + wl.sweep_batch(wl.DEFAULT_SEED))
    recorded = {}
    for claim in claims:
        out = child.run_claim(el, claim)
        if out["error"] or out["status"] != claim["expect"]:
            print(f"{wl.claim_label(claim)}: {out['error'] or out['status']}",
                  file=sys.stderr)
            return 1
        recorded[wl.claim_label(claim)] = out["payload"]
    path = Path(__file__).resolve().parent / "expected.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"claims": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} claims in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
