"""Write reference.json: outcomes of every untranslated case.

    python3 perfbench/make_reference.py

Run it only at a commit whose answers are trusted; the benchmark checks
every later commit against this file.  Besides each case's outcome it
stores the direct Gauss-sum magnitudes for y - x^2 with weight y, and the
number of points each curve_depth report covers.
"""

from __future__ import annotations

import json

from workloads import ROOT, WORKLOADS, build_cases, gauss_oracle_magnitude, load_program


def main() -> None:
    mods = load_program()
    lift_points = mods["counting"].lift_points
    parse = mods["polynomials"].parse_poly
    ref: dict[str, dict] = {}
    for workload in WORKLOADS:
        for case in build_cases(workload, None):
            entry: dict = {"outcome": case.run(mods)}
            if "gauss_p" in case.extra:
                p = case.extra["gauss_p"]
                entry["gauss"] = {}
                for rec in entry["outcome"]["records"]:
                    oracle = gauss_oracle_magnitude(p, rec["m"])
                    if abs(oracle - p ** (rec["m"] / 2)) > 1e-9 * oracle:
                        raise ArithmeticError(f"Gauss sum at p={p}, m={rec['m']} is {oracle}")
                    entry["gauss"][str(rec["m"])] = oracle
            if "points_at" in case.extra:
                ftext, p, level = case.extra["points_at"]
                entry["points"] = len(lift_points(parse(ftext), p, level))
            ref[case.id] = entry
            print(case.id, json.dumps(entry["outcome"])[:100])
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} cases to {path}")


if __name__ == "__main__":
    main()
