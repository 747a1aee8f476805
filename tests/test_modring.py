import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliffsynth import (
    CliffSynthError,
    Dimension,
    ScaleLimitError,
    gcd0,
    mod_inverse,
)
from cliffsynth.errors import SCALE_CAPS

from conftest import cap_message

MAX_D, _ = SCALE_CAPS["dimension d"]


class TestDimension:
    @pytest.mark.parametrize("d, D", [(2, 4), (3, 3), (4, 8), (5, 5), (6, 12), (24, 48)])
    def test_phase_modulus(self, d, D):
        dim = Dimension.of(d)
        assert (dim.d, dim.D) == (d, D)

    def test_rejects_small_and_inconsistent(self):
        with pytest.raises(CliffSynthError):
            Dimension.of(1)
        with pytest.raises(CliffSynthError):
            Dimension(4, 4)
        with pytest.raises(CliffSynthError):
            Dimension.of(10**9)

    @pytest.mark.parametrize("d", [5.5, 6.0, "7", None])
    def test_rejects_non_integers(self, d):
        with pytest.raises(CliffSynthError, match="must be an integer"):
            Dimension.of(d)

    def test_numpy_integers_accepted(self):
        dim = Dimension.of(np.int64(6))
        assert dim == Dimension.of(6) and type(dim.d) is int and type(dim.D) is int

    def test_cap_is_a_scale_limit(self):
        assert Dimension.of(MAX_D).d == MAX_D
        with pytest.raises(ScaleLimitError) as err:
            Dimension.of(MAX_D + 1)
        assert str(err.value) == cap_message("dimension d", MAX_D + 1)


class TestGcd0:
    def test_zero_convention(self):
        assert gcd0(0, 7) == 7
        assert gcd0(7, 0) == 7
        assert gcd0(0, 0) == 0

    def test_plain_values(self):
        assert gcd0(12, 12) == 12
        assert gcd0(9, 4) == 1

    def test_rejects_negative(self):
        with pytest.raises(CliffSynthError):
            gcd0(-1, 3)

    def test_divides_both_up_to_1000(self):
        a = np.arange(1000)
        g = np.gcd.outer(a, a)
        g0 = np.where(g == 0, 1, g)  # everything divides 0
        assert not (a[:, None] % g0).any()
        assert not (a[None, :] % g0).any()

    @pytest.mark.parametrize("bound", [120])
    def test_matches_brute_force_maximum(self, bound):
        for a in range(1, bound):
            for b in range(1, bound):
                best = max(t for t in range(1, min(a, b) + 1) if a % t == 0 and b % t == 0)
                assert gcd0(a, b) == best


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(2, 5) == 3
        assert mod_inverse(4, 12) is None
        inv = mod_inverse(11, 12)
        assert inv == 11 and 11 * inv % 12 == 1

    def test_modulus_validated(self):
        with pytest.raises(CliffSynthError):
            mod_inverse(3, 1)

    @given(st.integers(-50, 200), st.integers(2, 97))
    def test_present_iff_coprime(self, a, m):
        x = mod_inverse(a, m)
        if gcd0(a % m, m) == 1:
            assert x is not None and 0 <= x < m and a * x % m == 1
        else:
            assert x is None
