import pytest

from vknots.laurent import LaurentPoly


class TestPower:
    def test_negative_power_refused(self):
        with pytest.raises(ValueError, match="^negative powers of polynomials are not defined$"):
            LaurentPoly({1: 1}) ** -1
