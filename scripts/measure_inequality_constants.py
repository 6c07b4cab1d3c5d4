#!/usr/bin/env python3
"""Run the fixed 20-scenario family at two resolutions and print the implied
constants of every estimate with their refinement ratios.

Usage: python scripts/measure_inequality_constants.py
"""
import time

from stefanlab import studies


def main():
    t0 = time.time()
    rows = studies.family_stability_table()
    print(f"{'scenario':24s} {'caccioppoli':>18s} {'weak-harnack':>18s} "
          f"{'decay':>18s} {'trunc margins':>20s}")
    for row in rows:
        cells = [f"{row['label']:24s}"]
        for name in ("caccioppoli", "weak-harnack", "decay"):
            if name in row:
                a, b = row[name]
                cells.append(f"{a:8.3f}/{b:8.3f}" if a is not None and b is not None
                             else "degenerate".rjust(18))
            else:
                cells.append(" " * 18)
        ma, mb = row["truncation_margins"]
        cells.append(f"{ma:9.2e}/{mb:9.2e}")
        print(" ".join(cells))
    print(f"\n{len(rows)} scenarios x 2 resolutions in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
