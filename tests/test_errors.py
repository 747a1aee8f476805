import pytest

from cliffsynth import ScaleLimitError
from cliffsynth.errors import SCALE_CAPS, check_scale


def test_cap_values():
    caps = {name: cap for name, (cap, _) in SCALE_CAPS.items()}
    assert caps == {
        "dimension d": 1_000_000,
        "dense oracle side": 256,
        "dense operator side": 1024,
        "embed-check d": 36,
    }


@pytest.mark.parametrize("name", sorted(SCALE_CAPS))
def test_cap_is_inclusive_and_named_in_its_message(name):
    cap, bounds = SCALE_CAPS[name]
    check_scale(name, cap)
    with pytest.raises(ScaleLimitError) as err:
        check_scale(name, cap + 1)
    message = str(err.value)
    assert all(str(part) in message for part in (name, cap, cap + 1, bounds))
    assert message == f"{name} {cap + 1} exceeds the cap {cap} ({bounds})"
