"""Helpers shared by the test modules."""
import numpy as np
import pytest


@pytest.fixture
def trapezoid():
    """The trapezoid rule of the installed NumPy: ``np.trapezoid`` from NumPy
    2.0 on, ``np.trapz`` before it (the declared floor is NumPy 1.24)."""
    return getattr(np, "trapezoid", None) or np.trapz
