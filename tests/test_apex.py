import pytest

from geodesic.apex import ApexClassification, apex_classification, check_wh_implications
from geodesic.constructions import c4_based_metric, odd_cycle_metric
from geodesic.metric import validate_metric


def classification(n, d1=(), d2=(), d3=()):
    return ApexClassification(n, frozenset(d1), frozenset(d2), frozenset(d3))


class TestApexClassification:
    def test_odd_cycle_s2(self):
        # oracle: the ten apex tightness checks on the chart, done by hand:
        # w = (2,3,2,3,2); [x k k+1] tight iff k even, [k k+1 x] iff k odd,
        # [0 x 4] tight (2+2 = 4); nothing else.
        m = odd_cycle_metric(2)
        cls = apex_classification(m, ["0", "1", "2", "3", "4"], "x")
        assert cls.d1 == frozenset({(0, 1), (2, 3)})
        assert cls.d2 == frozenset({(0, 4)})
        assert cls.d3 == frozenset({(1, 2), (3, 4)})
        assert cls.d1 | cls.d3 == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_cyclic_core_rejected(self):
        m = c4_based_metric()
        with pytest.raises(ValueError, match="not linear"):
            apex_classification(m, ["a", "b", "c", "d"], "x")

    def test_apex_in_order_rejected(self):
        with pytest.raises(ValueError, match="apex"):
            apex_classification(odd_cycle_metric(2), ["0", "1", "x"], "x")

    @pytest.mark.parametrize("order, apex", [(["0", "1", "2", "3", "4"], "zz"), (["0", "zz"], "x")])
    def test_unknown_label_rejected(self, order, apex):
        with pytest.raises(ValueError, match="unknown point 'zz'"):
            apex_classification(odd_cycle_metric(2), order, apex)

    def test_repeated_core_label_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            apex_classification(odd_cycle_metric(2), ["0", "0"], "x")

    def test_empty_when_apex_far(self):
        # apex at incommensurable-ish distances: no tight apex triangle
        rows = [
            [0, 1, 2, "10", ],
            [1, 0, 1, "21/2"],
            [2, 1, 0, "32/3"],
            ["10", "21/2", "32/3", 0],
        ]
        m = validate_metric(["0", "1", "2", "x"], rows)
        cls = apex_classification(m, ["0", "1", "2"], "x")
        assert not cls.d1 and not cls.d2 and not cls.d3

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="disjoint"):
            classification(3, d1=[(0, 1)], d2=[(0, 1)])


class TestImplications:
    def test_odd_cycle_classifications_clean(self):
        for s in (2, 3):
            m = odd_cycle_metric(s)
            n = 2 * s + 1
            cls = apex_classification(m, [str(i) for i in range(n)], "x")
            assert check_wh_implications(cls) == []

    def test_d1_interval_violation(self):
        # (0,2) in d1 but (0,1) missing
        cls = classification(3, d1=[(0, 2)])
        rules = {v.rule for v in check_wh_implications(cls)}
        assert "d1-interval" in rules

    def test_d3_interval_violation(self):
        cls = classification(3, d3=[(0, 2)])
        rules = {v.rule for v in check_wh_implications(cls)}
        assert "d3-interval" in rules

    def test_d2_left_extension_violation(self):
        # (1,2) in d2 with 0 < 1 forces (0,1) in d3 and (0,2) in d2
        cls = classification(3, d2=[(1, 2)])
        rules = {v.rule for v in check_wh_implications(cls)}
        assert "d2-left-extension" in rules

    def test_d2_right_extension_violation(self):
        cls = classification(3, d2=[(0, 1)])
        rules = {v.rule for v in check_wh_implications(cls)}
        assert "d2-right-extension" in rules

    def test_chain_violations(self):
        cls = classification(3, d1=[(0, 1), (1, 2)])
        assert {v.rule for v in check_wh_implications(cls)} == {"d1-chain"}
        cls = classification(3, d3=[(0, 1), (1, 2)])
        assert {v.rule for v in check_wh_implications(cls)} == {"d3-chain"}

    def test_d2_completion_weak_and_sharpened(self):
        # (0,2) in d2 and (1,2) in d1: the pair {0,1} must be in d2 with 0 < 1
        cls = classification(3, d2=[(0, 2)], d1=[(1, 2)])
        rules = {v.rule for v in check_wh_implications(cls)}
        assert "d2-from-d1" in rules
        # sharpened side: (1,2) in d2 and (0,2) in d1 would need (1,0),
        # i.e. the concluded pair comes out in the wrong order
        cls = classification(3, d2=[(1, 2)], d1=[(0, 2)])
        rules = {v.rule for v in check_wh_implications(cls)}
        assert "d2-from-d1-sharpened" in rules

    def test_d2_from_d3_sharpened(self):
        cls = classification(3, d2=[(0, 2)], d3=[(0, 1)])
        rules = {v.rule for v in check_wh_implications(cls)}
        assert "d2-from-d3" in rules
        cls = classification(3, d2=[(0, 1)], d3=[(0, 2)])
        rules = {v.rule for v in check_wh_implications(cls)}
        assert "d2-from-d3-sharpened" in rules

    def test_empty_classification_clean(self):
        assert check_wh_implications(classification(5)) == []
