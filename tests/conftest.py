"""Fixtures shared by the test modules."""

import dataclasses

import numpy as np
import pytest

from rfspectral.closedform import CLOSED_FORMS


@pytest.fixture
def log1psq_with_a_nan(monkeypatch):
    """Registers log1psq with a nan planted at the first node, so that its
    operator image is not finite at any map scale."""
    entry = CLOSED_FORMS["log1psq"]

    def value(x):
        values = entry.value(x)
        values[0] = np.nan
        return values

    monkeypatch.setitem(CLOSED_FORMS, "log1psq", dataclasses.replace(entry, value=value))
