"""Unit tests for the candidate-pruning rules."""

import pytest

from repro.core.candidates import (
    PRUNE_MODES,
    dominated_candidates,
    normalize_prune_mode,
    prune_candidates,
    prune_monitored,
)
from repro.geometry.bisector import bisector_halfplane
from repro.geometry.point import Point
from repro.grid.alive import AliveCellGrid


Q = Point(0.5, 0.5)


class TestDominated:
    def test_no_candidates(self):
        assert dominated_candidates({}, Q) == set()

    def test_isolated_candidates_survive(self):
        cands = {1: Point(0.6, 0.5), 2: Point(0.5, 0.6)}
        assert dominated_candidates(cands, Q) == set()

    def test_clustered_candidate_dominated(self):
        # 2 sits right next to 1 but twice as far from q as from 1.
        cands = {1: Point(0.7, 0.5), 2: Point(0.72, 0.5)}
        doomed = dominated_candidates(cands, Q)
        assert doomed == {1, 2} or doomed == {2} or doomed == {1}
        # Both are within 0.02 of each other and ~0.2 from q, so both are
        # dominated under the paper's rule.
        assert doomed == {1, 2}

    def test_k_requires_more_witnesses(self):
        cands = {1: Point(0.7, 0.5), 2: Point(0.72, 0.5)}
        assert dominated_candidates(cands, Q, k=2) == set()
        cands[3] = Point(0.71, 0.51)
        assert dominated_candidates(cands, Q, k=2) == {1, 2, 3}

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            dominated_candidates({}, Q, k=0)

    def test_prune_candidates_in_place(self):
        cands = {1: Point(0.7, 0.5), 2: Point(0.72, 0.5), 3: Point(0.5, 0.9)}
        removed = prune_candidates(cands, Q)
        assert removed == 2
        assert set(cands) == {3}


class TestNormalizePruneMode:
    def test_strings_pass_through(self):
        for mode in PRUNE_MODES:
            assert normalize_prune_mode(mode) == mode

    def test_booleans_rejected(self):
        for mode in (True, False):
            with pytest.raises(ValueError):
                normalize_prune_mode(mode)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            normalize_prune_mode("sometimes")


class TestPruneMonitored:
    def _region(self, candidates):
        alive = AliveCellGrid(32)
        for pos in candidates.values():
            if pos != Q:
                alive.add_halfplane(bisector_halfplane(Q, pos))
        return alive

    def test_active_candidate_kept_even_if_dominated(self):
        # 1 defines the region's east boundary; 2 dominates it from the
        # side, but removing 1 would open the region east.
        cands = {1: Point(0.7, 0.5), 2: Point(0.68, 0.55)}
        alive = self._region(cands)
        before = set(alive.alive_cells())
        prune_monitored(cands, Q, alive)
        after = set(alive.alive_cells())
        # Whatever was pruned, the region never grew.
        assert after <= before

    def test_redundant_far_candidate_pruned(self):
        # far sits behind near in the same direction and in a dead cell.
        cands = {
            "near": Point(0.6, 0.5),
            "far": Point(0.95, 0.5),
            "up": Point(0.5, 0.6),
            "down": Point(0.5, 0.4),
            "left": Point(0.4, 0.5),
        }
        alive = self._region(cands)
        removed = prune_monitored(cands, Q, alive)
        assert removed == 1
        assert "far" not in cands

    def test_straddling_candidate_kept(self):
        """Hysteresis: a dominated candidate in an alive cell stays."""
        # Coarse grid: the candidates' cells straddle the region boundary.
        cands = {
            "near": Point(0.6, 0.5),
            "far": Point(0.63, 0.5),
        }
        alive = AliveCellGrid(4)  # one cell is 0.25 wide — both straddle
        for pos in cands.values():
            alive.add_halfplane(bisector_halfplane(Q, pos))
        prune_monitored(cands, Q, alive)
        assert "far" in cands  # its cell is alive, so it is kept

    def test_coincident_candidate_never_pruned(self):
        cands = {"self": Q, "other": Point(0.6, 0.5)}
        alive = self._region(cands)
        prune_monitored(cands, Q, alive)
        assert "self" in cands

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            prune_monitored({}, Q, AliveCellGrid(8), k=0)

    def test_removal_updates_mask_incrementally(self):
        cands = {
            "near": Point(0.6, 0.5),
            "far": Point(0.95, 0.5),
            "up": Point(0.5, 0.6),
            "down": Point(0.5, 0.4),
            "left": Point(0.4, 0.5),
        }
        alive = self._region(cands)
        prune_monitored(cands, Q, alive)
        # The mask's plane list matches the surviving candidates.
        assert len(alive.halfplanes) == len(cands)
