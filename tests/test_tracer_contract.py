"""What `perfbench/tracer.py` reads from the program, checked in process.

The tracer wraps each `SPANS` target by name, patching `Class.method` in
the class's own namespace, and rebinds `cyclotomic.galois_apply` to count
conjugates.  Its `cyclotomic.norm.max_phi` counter is phi(x.level) of the
number `absolute_norm` receives, which is `bernoulli_b1(rep)` at level
ord(rep).  The module is loaded by path and nothing is installed, so the
program stays unwrapped for the rest of the run.
"""

import importlib.util
from pathlib import Path

import pytest

from cmfields.arith import euler_phi
from cmfields.characters import galois_orbits, orbit_rep
from cmfields.fieldspec import parse_field_spec
from cmfields.hminus import bernoulli_b1

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracer):
    modules = tracer.load_modules()
    for mod, attr in tracer.SPANS:
        owner = modules[mod]
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (mod, attr)
        else:
            assert callable(getattr(owner, attr)), (mod, attr)


def test_conjugate_map_is_where_the_tracer_rebinds_it(tracer):
    assert callable(tracer.load_modules()["cyclotomic"].galois_apply)


# zeta:139 has an orbit at level 138 = 2 * 3 * 23, where the norm descends
@pytest.mark.parametrize("text", ["zeta:120", "zeta:139", "quad:-23"])
def test_norm_input_sits_at_the_character_order(text):
    orbits = galois_orbits(parse_field_spec(text).build().odd_characters())
    assert orbits
    for orbit in orbits:
        chi = orbit_rep(orbit)
        b = bernoulli_b1(chi)
        assert b.level == chi.order, chi.encode()
        assert len(b.num) == euler_phi(chi.order), chi.encode()
