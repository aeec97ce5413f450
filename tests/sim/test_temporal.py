"""Tests for the reference judge's eventually-always operator over finite series."""

from hypothesis import given
from hypothesis import strategies as st

from tests.runtime.reference_judge import convergence_time

BOOLS = st.lists(st.tuples(st.floats(0, 1000), st.booleans()), max_size=40)


def sorted_series(raw):
    return sorted(raw, key=lambda x: x[0])


class TestConvergence:
    def test_converges_at_last_flip(self):
        s = [(1.0, False), (2.0, True), (3.0, False), (4.0, True)]
        assert convergence_time(s, lambda v: v) == 4.0

    def test_holds_throughout(self):
        s = [(1.0, True), (2.0, True)]
        assert convergence_time(s, lambda v: v) == 1.0

    def test_never_converges(self):
        s = [(1.0, True), (2.0, False)]
        assert convergence_time(s, lambda v: v) is None

    def test_initial_value_considered(self):
        assert convergence_time([], lambda v: v, initial=True) == 0.0
        assert convergence_time([], lambda v: v, initial=False) is None

    def test_empty_series_no_initial(self):
        assert convergence_time([], lambda v: v) is None


@given(BOOLS)
def test_convergence_implies_final_value_holds(raw):
    s = sorted_series(raw)
    conv = convergence_time(s, lambda v: v)
    if conv is not None and s:
        assert s[-1][1]
