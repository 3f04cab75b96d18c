import hypothesis as h
import hypothesis.strategies as st
import pytest

from cantor_shrink.odometer import OdometerSpec, ResiduePoint, predecessor


@st.composite
def specs(draw):
    factors = draw(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4))
    tower = []
    acc = 1
    for f in factors:
        acc *= f
        tower.append(acc)
    return OdometerSpec.from_list(tower)


@st.composite
def points(draw):
    """A tower, a depth within it and an integer orbit value."""
    spec = draw(specs())
    depth = draw(st.integers(min_value=1, max_value=len(spec.values)))
    value = draw(st.integers(min_value=0, max_value=10**6))
    return spec, value, depth


def test_tower_validation():
    OdometerSpec.from_list((2, 4, 8))
    with pytest.raises(ValueError):
        OdometerSpec.from_list((2, 3))  # no divisibility
    with pytest.raises(ValueError):
        OdometerSpec.from_list((2, 2))  # not a proper extension
    with pytest.raises(ValueError):
        OdometerSpec.from_list((1, 2))
    with pytest.raises(ValueError):
        OdometerSpec.from_list(())
    with pytest.raises(ValueError):
        OdometerSpec.from_descriptor({"rule": "telepathic", "s": [2, 4]})


def test_rule_towers():
    listed = OdometerSpec.from_list((2, 4, 8))
    assert listed.s(0) == 1 and listed.k(1) == 2
    with pytest.raises(ValueError):
        listed.s(4)


def test_descriptor_roundtrip():
    spec = OdometerSpec.from_list((2, 4, 8))
    assert spec.descriptor() == {"rule": "list", "s": [2, 4, 8]}
    assert OdometerSpec.from_descriptor(spec.descriptor()) == spec
    for rule in ("geometric", "factorial"):
        with pytest.raises(ValueError, match="unknown odometer rule"):
            OdometerSpec.from_descriptor({"rule": rule})


def test_residue_thread_validation():
    ResiduePoint((1, 3), (2, 4))
    with pytest.raises(ValueError):
        ResiduePoint((0, 1), (2, 4))  # 1 mod 2 != 0
    with pytest.raises(ValueError):
        ResiduePoint((0, 4), (2, 4))  # residue out of range
    with pytest.raises(ValueError):
        ResiduePoint((0, 0), (2, 6, 12))  # length mismatch
    with pytest.raises(ValueError):
        ResiduePoint((0, 0), (4, 2))  # moduli must grow


@h.given(points())
def test_successor_predecessor_inverse(p):
    spec, value, depth = p
    assert predecessor(spec.point(value, depth)) == spec.point(value - 1, depth)
