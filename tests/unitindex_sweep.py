"""Hasse's unit index of Q(zeta_m) in closed form against the cascade.

    PYTHONPATH=src python tests/unitindex_sweep.py [MAX]

`hasse_unit_index` answers Q(zeta_m) from the primes dividing m.  The
oracle is the cascade it skips, run on the eagerly built character group
`AbelianField(all_characters(m))`: that field has no closed forms, so it
is reduced to its 2-primary subfield and decided rule by rule.  The
script compares (q, kappa, rule) for every m <= MAX (default 3000) with
m != 2 mod 4 and m >= 3, prints each mismatch, and exits 1 if there is
one.  `tests/test_unitindex.py` runs the same comparison up to 1000.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from cmfields.characters import all_characters
from cmfields.fields import AbelianField, cyclotomic_field
from cmfields.unitindex import hasse_unit_index


def levels(top: int) -> list[int]:
    """The canonical moduli 3 <= m <= top of the CM fields Q(zeta_m)."""
    return [m for m in range(3, top + 1) if m % 4 != 2]


@lru_cache(maxsize=None)
def cascade_verdict(m: int) -> tuple:
    """(q, kappa, rule) of the cascade on Q(zeta_m) built from its characters."""
    v = hasse_unit_index(AbelianField(all_characters(m)))
    return v.q, v.kappa_order, v.rule


def closed_form_verdict(m: int) -> tuple:
    """(q, kappa, rule) that `hasse_unit_index` gives the lazy Q(zeta_m)."""
    v = hasse_unit_index(cyclotomic_field(m, max_degree=m))
    return v.q, v.kappa_order, v.rule


def mismatches(verdict, top: int) -> list[tuple]:
    """(m, verdict(m), cascade) for each level up to top where they differ."""
    out = []
    for m in levels(top):
        got, want = verdict(m), cascade_verdict(m)
        if got != want:
            out.append((m, got, want))
    return out


def main(argv: list[str]) -> int:
    top = int(argv[0]) if argv else 3000
    bad = mismatches(closed_form_verdict, top)
    for m, got, want in bad:
        print(f"zeta:{m}: closed form {got}, cascade {want}")
    print(f"{len(levels(top))} levels m <= {top}, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
