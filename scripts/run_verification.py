#!/usr/bin/env python3
"""Run every stock verification preset and write a combined JSON report.

Usage: python3 scripts/run_verification.py [--samples N] [--seed S] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from bungee_lab.presets import PRESETS, run_preset
from bungee_lab.verify import shared_classifications


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=4096)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default=None, help="write the JSON report here")
    args = ap.parse_args()

    combined = []
    failures = 0
    start = time.monotonic()
    # one block for the whole loop, so inputs shared by presets are classified once
    with shared_classifications():
        for name in PRESETS:
            checks = run_preset(name, samples=args.samples, seed=args.seed)
            for c in checks:
                mark = "PASS" if c.passed else "FAIL"
                print(f"{mark}  {name}:{c.name}  ({c.expectation})", file=sys.stderr)
                failures += 0 if c.passed else 1
            combined.append({"preset": name, "checks": [c.to_dict() for c in checks]})
    elapsed = time.monotonic() - start

    report = {
        "samples": args.samples,
        "seed": args.seed,
        "runtime_s": round(elapsed, 2),
        "failures": failures,
        "presets": combined,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    print(f"{failures} failing checks in {elapsed:.1f}s", file=sys.stderr)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
