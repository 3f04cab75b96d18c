import pytest

from cantor_shrink.odometer import OdometerSpec


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


def test_rule_towers():
    listed = OdometerSpec.from_list((2, 4, 8))
    assert listed.extended_modulus(0) == 1 and listed.extended_k(1) == 2
    # past the listed moduli the tower goes on by its final branching factor
    assert [listed.extended_modulus(n) for n in range(1, 7)] == [2, 4, 8, 16, 32, 64]
    assert [OdometerSpec((3,)).extended_modulus(n) for n in range(4)] == [1, 3, 9, 27]
    with pytest.raises(ValueError, match="depth must be nonnegative, got -1"):
        listed.extended_modulus(-1)


def test_descriptor_roundtrip():
    spec = OdometerSpec.from_list((2, 4, 8))
    assert spec.descriptor() == {"rule": "list", "s": [2, 4, 8]}
    assert OdometerSpec(spec.descriptor()["s"]) == spec


def test_replace_validates_as_the_constructor_does():
    assert OdometerSpec((2, 4))._replace(values=(3, 9)) == OdometerSpec((3, 9))
    with pytest.raises(ValueError, match="does not properly extend"):
        OdometerSpec((2, 4))._replace(values=(2, 3))

