import numpy as np
import pytest

from slipflow.study import fit_order


@pytest.mark.parametrize("rate", [1.0, 2.4])
def test_fit_order_recovers_the_rate_of_a_geometric_ladder(rate):
    errors = 3.0 * 2.0 ** (-rate * np.arange(4))
    assert fit_order(errors) == pytest.approx(rate, rel=1e-12)
    # noise that alternates about the line moves the slope by less than it
    assert fit_order(errors * (1.0, 1.1, 1.0, 1.1)) == pytest.approx(rate, abs=0.1)
