"""List the D5 weights where dlocal and the product over positive roots differ.

    python3 bench/defects.py           # compare with d5_defects.json
    python3 bench/defects.py --write   # rewrite d5_defects.json

Run from the root of a checkout.  Computes the untwisted D5 local part at
n = 1 with dlocal (about half a minute) and every weight where it differs
from the product computed in ``refs.py``.  It prints the weights that
coeff-queries counts as failed in every round, and whether every differing
weight is listed in ``d5_defects.json``: the seeded draw skips the listed
weights, so an unlisted one could fail on some seeds only.

``d5_defects.json`` is part of coeff-queries' inputs, written when the
benchmark was made.  Leave it as it is when the program is mended: the
inputs then stay the same and the failed count drops.  ``--write``
replaces it with the weights that differ now, which changes the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import refs  # noqa: E402
from run import D5_DEFECTS, CoeffQueries  # noqa: E402


def differing_weights() -> list[tuple[int, ...]]:
    import dlocal

    part = dlocal.local_part(dlocal.build_root_system(5),
                             dlocal.HighestWeight.from_twist((0,) * 5), 1)
    product = refs.root_product(5)
    got = {lam: refs.ring_value(v.to_json_obj())[()] for lam, v in part.coefficients.items()}
    return sorted(lam for lam in set(got) | set(product)
                  if got.get(lam) != product.get(lam))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="replace d5_defects.json with the weights that differ now")
    args = parser.parse_args(argv)
    weights = differing_weights()
    print(f"{len(weights)} D5 weights differ from the product")
    if args.write:
        with open(D5_DEFECTS, "w") as fh:
            json.dump([list(lam) for lam in weights], fh)
            fh.write("\n")
        print(f"written to {os.path.relpath(D5_DEFECTS)}")
    differing, workload = set(weights), CoeffQueries(1)
    failed = [lam for lam in workload.fixed if lam in differing]
    print(f"coeff-queries counts {len(failed)} as failed in every round:")
    for lam in failed:
        print(",".join(map(str, lam)))
    unlisted = differing - workload.defects
    if unlisted:
        print(f"{len(unlisted)} differing weights are not in "
              f"{os.path.relpath(D5_DEFECTS)}, first {min(unlisted)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
