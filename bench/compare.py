"""Compare benchmark results saved with ``run.py --out``.

    python3 bench/compare.py BASE.json NEW.json [NEW2.json ...]

Prints each metric of each workload as NEW / BASE.  Warns on standard error
when the results were measured in different environments (core count,
Python, mpmath or its backend: a gmpy2 backend changes every bounds number),
because such a comparison says nothing about the code.
"""
from __future__ import annotations

import json
import sys


def main(paths: list[str]) -> int:
    if len(paths) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            runs.append((path, json.load(f)))
    base_path, base = runs[0]
    for path, run in runs[1:]:
        if run["environment"] != base["environment"]:
            print(f"warning: {path} was measured in {run['environment']}, "
                  f"{base_path} in {base['environment']}", file=sys.stderr)
        for workload, result in run["results"].items():
            old = base["results"].get(workload)
            if old is None:
                continue
            for name, m in result["metrics"].items():
                was = old["metrics"].get(name, {}).get("value")
                ratio = f"{m['value'] / was:.3f}" if was else "n/a"
                print(f"{path} {workload} {name}: {was} -> {m['value']} {m['unit']} (x{ratio})")
            if (old["attempted"], old["failed"]) != (result["attempted"], result["failed"]):
                print(f"{path} {workload} failed/attempted: {old['failed']}/{old['attempted']}"
                      f" -> {result['failed']}/{result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
