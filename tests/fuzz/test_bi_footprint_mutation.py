"""Mutation smoke tests for bichromatic footprints.

A bichromatic footprint covers the alive cells plus the witness ball of
each B object the last verification probed; the probed objects include
every B object point-alive in the final region, and a B object the
point filter skipped stays point-dead until a footprint trigger fires
(``docs/ALGORITHM.md``, "Bichromatic footprints").  Three planted
mutants, one per part of that argument:

- **Ball-less footprint.**  The footprint keeps only the alive cells, so
  an A object entering an answer's witness ball outside the region no
  longer dispatches the query.
- **Answer balls only.**  Only the answers' balls are covered.  At
  ``k = 1`` every probed non-answer absorbs its nearest A object and
  turns point-dead, so this equals the shipped footprint; at ``k >= 2``
  a probed non-answer can stay point-alive, and the A objects in its
  ball that can make it an answer are watched by nothing.
- **No post-loop re-test.**  The prune after the verification loop
  still runs, but the pending B objects are not re-tested against the
  final region.  At ``k >= 2`` the guarded rule decides redundancy per
  cell, so a removed half-plane can revive a B object the point filter
  skipped, and its ball goes unwatched.  The seed-0 stream first shows
  this at scenario 399, so the target is the committed scenario
  ``tests/fuzz_corpus/bi-lattice-k2-post-loop-prune-revival.json``
  (seed-0 scenario 1439 shrunk to 6 objects and 1 tick).

The fuzzer's footprint check finds the point-alive B objects afresh from
the grid, and ``RegionState.check_invariants`` requires each of them to
be probed.  Each test plants its mutant, asserts the fuzzer catches it,
shrinks the failure, saves it, replays it deterministically, then
unplants it and replays clean — the pattern of ``test_mutation.py``.
"""

from repro.core.bi import BiIGERN
from repro.core.state import FOOTPRINT_CELL_CAP, RegionState, _add_ball_cells
from repro.fuzz.corpus import (
    DEFAULT_CORPUS_DIR,
    artifact_name,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.fuzz.runner import run_scenario
from repro.fuzz.scenario import generate_scenarios
from repro.fuzz.shrink import shrink
from repro.geometry.point import dist

REVIVAL_ARTIFACT = DEFAULT_CORPUS_DIR / "bi-lattice-k2-post-loop-prune-revival.json"

_original_footprint_cells = RegionState.footprint_cells
_original_verify = BiIGERN._verify
_original_prune = BiIGERN._prune


def _bi_footprint_of_alive_cells(self, grid, cap=FOOTPRINT_CELL_CAP):
    """The planted bug: a bichromatic footprint of the alive cells only."""
    cells = _original_footprint_cells(self, grid, cap)
    if cells is None or self.cat_b is None:
        return cells
    return set(self.alive.alive_cells())


def _bi_footprint_of_answer_balls(self, grid, cap=FOOTPRINT_CELL_CAP):
    """The planted bug: witness balls for the answers only."""
    cells = _original_footprint_cells(self, grid, cap)
    if cells is None or self.cat_b is None:
        return cells
    cells = set(self.alive.alive_cells())
    for oid in self.answer:
        pos = grid.position(oid)
        if not _add_ball_cells(grid, pos, dist(pos, self.qpos), cells, cap):
            return None
    return cells


def _verify_marking_the_loop(self, state, pending=None):
    self._in_verify = True
    try:
        return _original_verify(self, state, pending)
    finally:
        self._in_verify = False


def _prune_hiding_post_loop_removals(self, state):
    """The planted bug: the post-loop prune's removals go unreported to
    the verification, which therefore skips its re-test."""
    removed = _original_prune(self, state)
    return 0 if getattr(self, "_in_verify", False) else removed


def _first_failure(max_scenarios=60):
    """Run the seed-0 stream's bichromatic scenarios until one diverges."""
    for scenario in generate_scenarios(0):
        if scenario.index >= max_scenarios:
            break
        if scenario.mode != "bi":
            continue
        result = run_scenario(scenario)
        if not result.ok:
            return result
    return None


def _assert_shrunk_and_replayable(tmp_path, result, note):
    outcome = shrink(result.scenario, result)
    assert not outcome.result.ok
    assert outcome.objects <= len(result.scenario.script["initial"])
    assert outcome.ticks <= result.scenario.n_ticks
    path = save_artifact(
        tmp_path / artifact_name(outcome.result), outcome.result, note=note
    )
    replay_one = replay_artifact(path)
    replay_two = replay_artifact(path)
    assert not replay_one.ok
    assert [d.describe() for d in replay_one.divergences] == [
        d.describe() for d in replay_two.divergences
    ]
    return path


def test_planted_ball_less_bi_footprint_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    with monkeypatch.context() as m:
        m.setattr(RegionState, "footprint_cells", _bi_footprint_of_alive_cells)
        result = _first_failure()
        assert result is not None, "ball-less bichromatic footprint went uncaught"
        path = _assert_shrunk_and_replayable(
            tmp_path, result, "planted bichromatic footprint of the alive cells"
        )
    assert replay_artifact(path).ok


def test_planted_answer_balls_only_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    with monkeypatch.context() as m:
        m.setattr(RegionState, "footprint_cells", _bi_footprint_of_answer_balls)
        result = _first_failure()
        assert result is not None, "answer-balls-only footprint went uncaught"
        assert result.scenario.k >= 2
        path = _assert_shrunk_and_replayable(
            tmp_path, result, "planted bichromatic footprint of answer balls"
        )
    assert replay_artifact(path).ok


def test_planted_missing_post_loop_retest_caught_on_the_revival_scenario(
    tmp_path, monkeypatch
):
    scenario = load_artifact(REVIVAL_ARTIFACT).scenario
    with monkeypatch.context() as m:
        m.setattr(BiIGERN, "_verify", _verify_marking_the_loop)
        m.setattr(BiIGERN, "_prune", _prune_hiding_post_loop_removals)
        result = run_scenario(scenario)
        assert not result.ok, "missing post-loop re-test went uncaught"
        assert any("was not probed" in d.detail for d in result.divergences)
        path = _assert_shrunk_and_replayable(
            tmp_path, result, "planted verification without the post-loop re-test"
        )
    assert replay_artifact(path).ok


def test_revival_scenario_is_clean_and_not_vacuous(monkeypatch):
    """The committed scenario is clean on the shipped code, and its
    evaluations do run a post-loop prune that removes a half-plane."""
    removals = []

    def counting_prune(self, state):
        removed = _original_prune(self, state)
        if getattr(self, "_in_verify", False):
            removals.append(removed)
        return removed

    monkeypatch.setattr(BiIGERN, "_verify", _verify_marking_the_loop)
    monkeypatch.setattr(BiIGERN, "_prune", counting_prune)
    result = run_scenario(load_artifact(REVIVAL_ARTIFACT).scenario)
    assert result.ok, [d.describe() for d in result.divergences]
    assert any(removals)
