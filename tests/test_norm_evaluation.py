"""`absolute_norm` takes a level with phi(n) <= 12 by evaluating every
conjugate at one point, and a wider one down the tower; `bernoulli_b1`
reads the layout of (Z/fZ)* from a one-entry memo on the conductor f.
Both paths are checked here against `norm_whole_ring` on every level
1..300 and on every orbit of `table hminus --zeta-range 3..140`, with
committed mutants of the evaluation and of the layout memo that the
checks must kill.  `tests/norm_sweep.py` compares the two paths over
wider ranges.
"""

import inspect
import random
import textwrap
from functools import lru_cache

import pytest

from cmfields import cyclotomic, hminus
from cmfields.arith import euler_phi
from cmfields.characters import odd_primitive_orbit_reps
from cmfields.cyclotomic import CycNumber, absolute_norm
from cmfields.errors import InternalInconsistency
from cmfields.hminus import bernoulli_b1
import norm_sweep
from cycoracle import norm_whole_ring


def _elements(rng, level):
    """Signed numerators at this level: sparse small ones, one built by
    `from_power_coeffs` from a vector twice the level long, and to level
    60 dense small ones and sparse ones past 8 bytes."""
    phi = euler_phi(level)
    out = []
    cases = [(3, 4)]
    if level <= 60:
        cases += [(3, phi), (1 << 100, 4), (1 << 62, 2)]
    for top, support in cases:
        num = [0] * phi
        for _ in range(support):
            num[rng.randrange(phi)] = rng.randint(-top, top)
        out.append(CycNumber._from_ints(level, num, rng.randint(1, 30)))
    coeffs = [rng.randint(-50, 50) for _ in range(2 * level)]
    out.append(CycNumber.from_power_coeffs(level, coeffs, rng.randint(1, 30)))
    return out


def test_both_paths_match_whole_ring_on_every_level_to_300():
    rng = random.Random(32)
    wide = 0
    for level in range(1, 301):
        for x in _elements(rng, level):
            want = norm_whole_ring(x)
            assert cyclotomic._evaluated_norm(x) == want, (level, x.num)
            if len(x.num) > 1:  # Q itself has no tower
                assert cyclotomic._tower_norm(x) == want, (level, x.num)
            assert absolute_norm(x) == want
            bits = (2 * sum(map(abs, x.num)) + 1).bit_length()
            wide += cyclotomic._digit_width(bits) > 8
    assert wide > 60


@lru_cache(maxsize=None)
def _table_bernoullis() -> tuple:
    """B_(1,chi) of every odd primitive orbit of conductor 3..140, by
    conductor: the orbits of `table hminus --zeta-range 3..140`."""
    return tuple(bernoulli_b1(rep) for f in range(3, 141)
                 for rep in odd_primitive_orbit_reps(f))


def test_both_paths_match_whole_ring_on_every_table_orbit():
    phis = set()
    for b in _table_bernoullis():
        want = norm_whole_ring(b)
        assert cyclotomic._evaluated_norm(b) == want, b.level
        if len(b.num) > 1:
            assert cyclotomic._tower_norm(b) == want, b.level
        phis.add(len(b.num))
    # the table's orbits lie on both sides of the threshold
    assert {1, 2, 12, 16, 64} <= phis


def test_the_evaluation_width_is_the_least_native_one(monkeypatch):
    """W is the least of 8, 16, 32 and 64 bits (whole bytes past that)
    with 2^(W-1) > 2 S + 1, S = sum |a|, and Phi_n(2^W) > 2 S^phi."""
    original = cyclotomic._evaluation_point
    seen = []

    def record(n, bits):
        point = original(n, bits)
        seen.append(point[0])
        return point

    monkeypatch.setattr(cyclotomic, "_evaluation_point", record)
    rng = random.Random(8)
    widths = set()
    for level in range(1, 61):
        for x in _elements(rng, level):
            seen.clear()
            cyclotomic._evaluated_norm(x)
            (width,) = seen
            bound = 2 * sum(map(abs, x.num)) + 1
            assert 1 << (8 * width - 1) > bound
            narrower = width // 2 if width <= 8 else width - 1
            assert not narrower or 1 << (8 * narrower - 1) <= bound
            modulus = original(level, bound.bit_length())[4]
            assert modulus > 2 * sum(map(abs, x.num)) ** len(x.num)
            widths.add(width)
    assert {1, 2, 8} <= widths and max(widths) > 8


def test_the_identity_map_and_the_units_of_each_level():
    for n in range(1, 80):
        maps = cyclotomic._conjugate_maps(n)
        assert len(maps) == euler_phi(n)
        a = list(range(100, 100 + n))
        images = {tuple(m(a)) for m in maps}
        assert len(images) == len(maps) and tuple(a) in images


# (module, function, exact snippet, replacement): committed mutants of the
# evaluation and of the layout memo
_MEMO = """    layout = _UNIT_LAYOUT.get(f)
    if layout is None:  # one entry: the conductor asked for last
        _UNIT_LAYOUT.clear()
        layout = _UNIT_LAYOUT[f] = _unit_layout(f)"""
EVALUATION_MUTANTS = {
    "W one native width too narrow": (
        cyclotomic, "_evaluation_point", "width = _digit_width(bits)",
        "width = max(_digit_width(bits) // 2, 1)"),
    "offset XOR dropped": (
        cyclotomic, "_pack",
        'return (int.from_bytes(buf.tobytes(), "little") ^ offset) - offset',
        'return int.from_bytes(buf.tobytes(), "little")'),
    "residue not centred": (
        cyclotomic, "_evaluated_norm",
        "r - modulus if 2 * r > modulus else r", "r"),
    "one unit k skipped": (
        cyclotomic, "_conjugate_maps", "if math.gcd(k, n) == 1:",
        "if math.gcd(k, n) == 1 and k != n - 1:"),
    "layout memo keyed on the level": (
        hminus, "bernoulli_b1", _MEMO,
        _MEMO.replace("get(f)", "get(n)").replace("LAYOUT[f]", "LAYOUT[n]")),
}


def _mutate(monkeypatch, module, name, snippet, replacement):
    """Replace `name` in `module` by its source with `snippet` replaced, for
    the rest of the test; the mutant gets its own empty layout memo."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(snippet) == 1
    namespace = dict(vars(module), _UNIT_LAYOUT={})
    exec(source.replace(snippet, replacement), namespace)
    monkeypatch.setattr(module, name, namespace[name])


@lru_cache(maxsize=None)
def _cases() -> tuple:
    """(x, N(x)) for dense signed elements of every level 1..60, digits up
    to 100, with the unmutated kernel's norms; and the unmutated B_(1,chi)
    of the table's orbits, which `test_hminus.py` checks by the values of
    chi."""
    rng = random.Random(3)
    norms = []
    for level in range(1, 61):
        num = [rng.randint(-100, 100) for _ in range(euler_phi(level))]
        x = CycNumber._from_ints(level, num, 1)
        norms.append((x, norm_whole_ring(x)))
    return tuple(norms), _table_bernoullis()


def _value(b: CycNumber) -> tuple:
    return b.level, b.num, b.den


def _killed() -> bool:
    """Whether evaluation misreads a norm, B_(1,chi) walked conductor by
    conductor differs, or a check fires."""
    norms, bernoullis = _cases()
    try:
        if any(cyclotomic._evaluated_norm(x) != want for x, want in norms):
            return True
        reps = [rep for f in range(3, 141) for rep in odd_primitive_orbit_reps(f)]
        return any(_value(hminus.bernoulli_b1(rep)) != _value(b)
                   for rep, b in zip(reps, bernoullis))
    except InternalInconsistency:
        return True


@pytest.mark.parametrize("name", EVALUATION_MUTANTS)
def test_the_checks_kill_evaluation_mutants(monkeypatch, name):
    _cases()
    _mutate(monkeypatch, *EVALUATION_MUTANTS[name])
    assert _killed()


def test_the_unmutated_functions_are_not_killed(monkeypatch):
    _cases()
    # each mutated function once, from its own source
    for module, function, snippet, _ in {m[:2]: m for m in
                                         EVALUATION_MUTANTS.values()}.values():
        _mutate(monkeypatch, module, function, snippet, snippet)
    assert not _killed()


def test_a_too_narrow_width_fires_the_modulus_check(monkeypatch):
    """At width 1 the digits 127 still pack, but Phi_4(2^8) = 65537 is not
    above 2 * 254^2."""
    x = CycNumber._from_ints(4, [127, 127], 1)
    assert cyclotomic._evaluated_norm(x) == 2 * 127 ** 2
    _mutate(monkeypatch, *EVALUATION_MUTANTS["W one native width too narrow"])
    with pytest.raises(InternalInconsistency,
                       match=r"Phi_4\(2\^8\) does not exceed 2 \* 254\^2"):
        cyclotomic._evaluated_norm(x)


def test_the_layout_memo_holds_one_conductor(monkeypatch):
    """B_(1,chi) walked with the conductors interleaved, so that each call
    rebuilds the layout, equals the walk conductor by conductor."""
    reps = [rep for f in range(3, 141) for rep in odd_primitive_orbit_reps(f)]
    want = {rep.primitive_key(): _value(b)
            for rep, b in zip(reps, _table_bernoullis())}
    monkeypatch.setattr(hminus, "_UNIT_LAYOUT", {})
    rebuilt = 0
    for rep in sorted(reps, key=lambda rep: rep.primitive_key()[1]):
        f = rep.primitive_key()[0]
        rebuilt += f not in hminus._UNIT_LAYOUT
        assert _value(bernoulli_b1(rep)) == want[rep.primitive_key()]
        assert list(hminus._UNIT_LAYOUT) == [f]
    assert rebuilt > len(reps) // 2


def test_the_sweep_finds_no_mismatch_at_small_conductors():
    """`tests/norm_sweep.py` on fewer elements: 20 per small level and the
    orbits of conductor <= 60."""
    rng = random.Random(5)
    levels = norm_sweep.small_levels()
    assert max(levels) == 42 and len(levels) == 26
    xs = [x for n in levels for x in norm_sweep.elements(n, rng, 20)]
    assert norm_sweep.mismatches(xs + norm_sweep.orbit_bernoullis(60)) == []
