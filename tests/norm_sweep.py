"""The norm by evaluation against the norm down the tower.

    PYTHONPATH=src python tests/norm_sweep.py [MAX]

`absolute_norm` evaluates every conjugate at one point for a level with
phi(n) <= 12 and goes down the tower of cyclotomic fields for a wider one.
This script runs both private entries, `_evaluated_norm` and
`_tower_norm`, on the same elements and compares the norms:

- at every level with phi(n) <= 12, 1000 seeded elements each: sparse and
  dense signed numerators, numerators of 8 bytes and past 8 bytes (the
  digits go through `array` buffers up to 8 bytes and through bytes past
  that), and numerators reduced mod Phi_n by `from_power_coeffs`;
- on B_(1,chi) of every odd primitive orbit of conductor f <= MAX
  (default 300), which are the odd orbits of every Q(zeta_m), m <= MAX.

Q itself (phi(n) = 1) has no tower, so there evaluation is compared with
the rational the element is.  The script prints each mismatch, or check
that fired, and exits 1 if there is one.  It needs only the standard
library.  `tests/test_norm_evaluation.py` compares both paths with the
whole-ring oracle on fewer elements.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from cmfields.arith import euler_phi
from cmfields.characters import odd_primitive_orbit_reps
from cmfields.cyclotomic import (_EVALUATE_MAX_PHI, CycNumber, _evaluated_norm,
                                 _tower_norm)
from cmfields.errors import InternalInconsistency
from cmfields.hminus import bernoulli_b1

PER_LEVEL = 1000


def small_levels() -> list[int]:
    """Every level n with phi(n) <= 12; phi(n) >= sqrt(n / 2), so n <= 288."""
    return [n for n in range(1, 289) if euler_phi(n) <= _EVALUATE_MAX_PHI]


def elements(level: int, rng: random.Random,
             count: int = PER_LEVEL) -> list[CycNumber]:
    """count seeded elements at this level, digits of up to 2, 8, 31, 62
    and 201 bits in turn; every fourth one reduced from a longer vector."""
    phi = euler_phi(level)
    out = []
    for i in range(count):
        top = (3, 100, 1 << 30, 1 << 61, 1 << 200)[i % 5]
        den = rng.randint(1, 40)
        if i % 4 == 3:
            coeffs = [rng.randint(-top, top) for _ in range(rng.randint(1, 3 * level))]
            out.append(CycNumber.from_power_coeffs(level, coeffs, den))
            continue
        support = phi if i % 2 else rng.randint(1, phi)
        num = [0] * phi
        for _ in range(support):
            num[rng.randrange(phi)] = rng.randint(-top, top)
        out.append(CycNumber._from_ints(level, num, den))
    return out


def orbit_bernoullis(top: int) -> list[CycNumber]:
    return [bernoulli_b1(rep) for f in range(3, top + 1)
            for rep in odd_primitive_orbit_reps(f)]


def mismatches(xs) -> list[tuple]:
    """(level, numerators, den, what differs) for each element whose two
    norms differ or whose check fires."""
    bad = []
    for x in xs:
        try:
            got = _evaluated_norm(x)
            want = (_tower_norm(x) if len(x.num) > 1
                    else Fraction(x.num[0], x.den))
            if got != want:
                bad.append((x.level, x.num, x.den, f"{got} != {want}"))
        except InternalInconsistency as exc:
            bad.append((x.level, x.num, x.den, str(exc)))
    return bad


def main(argv: list[str]) -> int:
    top = int(argv[0]) if argv else 300
    rng = random.Random(32)
    levels = small_levels()
    xs = [x for n in levels for x in elements(n, rng)]
    bs = orbit_bernoullis(top)
    bad = mismatches(xs) + mismatches(bs)
    for level, num, den, why in bad:
        print(f"level {level}, {num} / {den}: {why}")
    print(f"{len(xs)} elements at {len(levels)} levels with phi <= "
          f"{_EVALUATE_MAX_PHI}, {len(bs)} odd orbits of conductor <= {top}, "
          f"{len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
