"""Property-based tests for the cost ledger.

The lint suite forbids wall-clock reads because every reported time must
come from the simulated ledger; these properties pin down the algebra the
engine relies on: charges are non-negative and category totals are exactly
the sum of the charges made against them, under both serial and parallel
composition.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.costmodel import Category, CostLedger

categories = st.sampled_from(list(Category))
seconds = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
charges = st.lists(st.tuples(categories, seconds), max_size=50)


@given(charges)
def test_category_totals_equal_sum_of_charges(items):
    ledger = CostLedger()
    for category, amount in items:
        ledger.charge(category, amount)
    for category in Category:
        expected = 0.0
        for item_category, amount in items:
            if item_category is category:
                expected += amount  # same accumulation order as the ledger
        assert ledger[category] == expected
    assert ledger.total == pytest.approx(
        sum(amount for _, amount in items)
    )


@given(
    categories,
    st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
)
def test_negative_charge_rejected_and_ledger_unchanged(category, amount):
    ledger = CostLedger()
    ledger.charge(category, 1.0)
    with pytest.raises(ValueError):
        ledger.charge(category, amount)
    assert ledger[category] == 1.0
    assert ledger.total == 1.0


@given(categories, seconds)
def test_negative_meter_count_rejected(category, amount):
    ledger = CostLedger()
    with pytest.raises(ValueError):
        ledger.count("io_bytes", -1.0 - amount)
    assert ledger.meter("io_bytes") == 0.0


@given(charges, charges)
def test_serial_add_sums_per_category(first, second):
    a, b = CostLedger(), CostLedger()
    for category, amount in first:
        a.charge(category, amount)
    for category, amount in second:
        b.charge(category, amount)
    combined = a.copy()
    combined.add(b)
    for category in Category:
        assert combined[category] == a[category] + b[category]


@given(st.lists(charges, max_size=5))
def test_parallel_takes_per_category_maximum(branch_charges):
    branches = []
    for items in branch_charges:
        ledger = CostLedger()
        for category, amount in items:
            ledger.charge(category, amount)
        branches.append(ledger)
    combined = CostLedger.parallel(branches)
    for category in Category:
        expected = max((b[category] for b in branches), default=0.0)
        assert combined[category] == expected
