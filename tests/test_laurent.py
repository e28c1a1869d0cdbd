from vknots.laurent import LaurentPoly


class TestDunders:
    def test_equal_polynomials_hash_equal(self):
        a, b = LaurentPoly({3: -1, -1: 2}), LaurentPoly({-1: 2, 3: -1})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, LaurentPoly({3: -1})}) == 2

    def test_other_types_are_left_to_python(self):
        p = LaurentPoly({0: 1})
        assert p.__eq__(1) is NotImplemented and p.__eq__({0: 1}) is NotImplemented
        assert p != 1

    def test_repr_names_the_polynomial(self):
        assert repr(LaurentPoly({3: -1, -1: 2})) == "LaurentPoly(2*A^-1 - A^3)"
