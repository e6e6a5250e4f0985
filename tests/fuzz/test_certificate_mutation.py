"""Mutation smoke tests for monochromatic witness certificates.

A non-answer candidate keeps the ``k`` witnesses that disqualified it;
verification skips its probe while every witness is still *strictly*
closer to it than the query, and the footprint drops its witness ball in
favour of the witnesses themselves (``docs/ALGORITHM.md``, "Witness
certificates").  Three planted mutants, one per half of that argument:

- **Trusted certificate.**  The witness re-check is skipped: a
  certificate issued at the current candidate and query positions is
  believed although its witnesses moved away or left the index.
- **Non-strict re-check.**  A witness that moved exactly onto the
  candidate's threshold circle still counts (``<=`` instead of ``<``).
  Random scenarios almost never land a witness on a circle exactly, so
  the target is the committed tie scenario
  ``tests/fuzz_corpus/mono-lattice-k1-certificate-tie.json``: the only
  witness of a non-answer moves onto the circle (dyadic coordinates, so
  the tie is exact) and the candidate becomes an answer; a tick before,
  the witness moved but stayed strictly closer, so the certificate held.
- **Ball-less footprint.**  The monochromatic footprint keeps only the
  alive cells, so an object entering an answer's witness ball no longer
  dispatches the query.

Each test plants its mutant, asserts the fuzzer catches it, shrinks the
failure, saves it, replays it deterministically, then unplants it and
replays clean — the pattern of ``test_mutation.py``.
"""

import repro.core.mono as mono
from repro.core.state import FOOTPRINT_CELL_CAP, RegionState
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
from repro.geometry import predicates

TIE_ARTIFACT = DEFAULT_CORPUS_DIR / "mono-lattice-k1-certificate-tie.json"


def _trusting_certificate_holds(positions, cert, cpos, q):
    """The planted bug: positions are compared, witnesses never re-checked."""
    return cert.candidate == cpos and cert.query == q


def _non_strict_certificate_holds(positions, cert, cpos, q):
    """The planted bug: an equidistant witness still disqualifies."""
    if cert.candidate != cpos or cert.query != q:
        return False
    for wid in cert.witnesses:
        wpos = positions.get(wid)
        if wpos is None or predicates.compare_distance(cpos, wpos, q) > 0:
            return False
    return True


_original_footprint_cells = RegionState.footprint_cells


def _footprint_without_answer_balls(self, grid, cap=FOOTPRINT_CELL_CAP):
    """The planted bug: a monochromatic footprint of the alive cells only."""
    cells = _original_footprint_cells(self, grid, cap)
    if cells is None or self.cat_b is not None:
        return cells
    return set(self.alive.alive_cells())


def _first_failure(max_scenarios=30):
    """Run the seed-0 scenario stream until one scenario diverges."""
    for scenario in generate_scenarios(0):
        if scenario.index >= max_scenarios:
            break
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


def test_planted_trusted_certificate_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    with monkeypatch.context() as m:
        m.setattr(mono, "certificate_holds", _trusting_certificate_holds)
        result = _first_failure()
        assert result is not None, "trusted-certificate mutant went uncaught"
        path = _assert_shrunk_and_replayable(
            tmp_path, result, "planted unchecked witness certificate"
        )
    assert replay_artifact(path).ok


def test_planted_non_strict_recheck_caught_on_the_tie_scenario(
    tmp_path, monkeypatch
):
    scenario = load_artifact(TIE_ARTIFACT).scenario
    with monkeypatch.context() as m:
        m.setattr(mono, "certificate_holds", _non_strict_certificate_holds)
        result = run_scenario(scenario)
        assert not result.ok, "non-strict certificate re-check went uncaught"
        assert "oracle" in {d.kind for d in result.divergences}
        path = _assert_shrunk_and_replayable(
            tmp_path, result, "planted <= certificate re-check"
        )
    assert replay_artifact(path).ok


def test_planted_ball_less_footprint_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    with monkeypatch.context() as m:
        m.setattr(RegionState, "footprint_cells", _footprint_without_answer_balls)
        result = _first_failure()
        assert result is not None, "ball-less footprint mutant went uncaught"
        path = _assert_shrunk_and_replayable(
            tmp_path, result, "planted footprint without answer balls"
        )
    assert replay_artifact(path).ok


def test_tie_scenario_uses_a_certificate_and_stays_clean():
    """The committed tie scenario is clean on the shipped code, and its
    first tick is settled by the candidate's certificate (the witness
    moved but stayed strictly closer), so the scenario is not vacuous."""
    result = run_scenario(load_artifact(TIE_ARTIFACT).scenario)
    assert result.ok, [d.describe() for d in result.divergences]
    assert result.certified > 0
