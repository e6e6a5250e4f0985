"""Shared fixtures for the fuzz-subsystem tests."""

import math

import pytest

from repro.grid.search import GridSearch, SearchKind

_original_count_closer_than = GridSearch.count_closer_than


def leq_count_closer_than(
    self,
    center,
    threshold_sq,
    exclude=(),
    category=None,
    stop_at=None,
    kind=SearchKind.UNCONSTRAINED,
    threshold_point=None,
    witnesses=None,
):
    """``count_closer_than`` with its strict ``<`` flipped to ``<=``.

    Nudging the squared threshold one ulp upward makes exactly-tied
    witnesses count, which is operationally the non-strict comparison —
    the planted bug the lattice scenarios are designed to expose.  The
    exact reference point is deliberately discarded: the mutant models a
    refactor that lost the exact comparison path, so the decision falls
    back to the (nudged) float threshold.
    """
    return _original_count_closer_than(
        self,
        center,
        math.nextafter(threshold_sq, math.inf),
        exclude=exclude,
        category=category,
        stop_at=stop_at,
        kind=kind,
        witnesses=witnesses,
    )


@pytest.fixture
def plant_leq_mutant(monkeypatch):
    """Install the tie-semantics mutant for the duration of a test."""
    monkeypatch.setattr(GridSearch, "count_closer_than", leq_count_closer_than)
