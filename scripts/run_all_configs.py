"""Run every example config under configs/ and print a verdict summary.

Usage: python scripts/run_all_configs.py [--out DIR] [--threads N]

configs/ is found next to this script, so it runs from any directory.
After each config's summary line the script prints one
``<sha256>  <config>/<file>`` line per CSV and ``verdict.json`` written, in
sha256sum format relative to DIR: diff these lines between two commits (or
check them with ``cd DIR && sha256sum -c``) to confirm byte-identical
results.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from voltlift.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_all(out_root, threads):
    # *_basis.json files are data referenced by configs, not configs
    configs = [c for c in sorted(CONFIGS.glob("*.json"))
               if not c.stem.endswith("_basis")]
    failures = 0
    for cfg in configs:
        out = Path(out_root) / cfg.stem
        t0 = time.perf_counter()
        rc = cli_main(["run", "--config", str(cfg), "--out", str(out),
                       "--threads", str(threads)])
        dt = time.perf_counter() - t0
        verdict = {}
        vfile = out / "verdict.json"
        if vfile.exists():
            verdict = json.loads(vfile.read_text())
        status = "ok" if rc == 0 else f"exit {rc}"
        brief = {k: v for k, v in verdict.items()
                 if k in ("passed", "max_rel_err", "r_hat", "w1",
                          "spearman", "margin", "kl_budget")}
        print(f"{cfg.stem:<20} {status:<8} {dt:6.1f}s  {brief}")
        for f in sorted(out.glob("*.csv")) + sorted(out.glob("verdict.json")):
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
            print(f"{digest}  {cfg.stem}/{f.name}")
        failures += rc != 0
    return failures


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args()
    sys.exit(min(run_all(args.out, args.threads), 1))
