"""Propagation kernel: one numpy implementation (see `_prop_py`)."""

from ._prop_py import propagate_piecewise, propagate_piecewise_batch, \
    pullback_closed, rows_per_call


def backend():
    """Name of the live propagation kernel."""
    return "python"
