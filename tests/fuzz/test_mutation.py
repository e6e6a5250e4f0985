"""Mutation smoke tests: the fuzzer must catch planted bugs.

Two mutants, one per harness layer:

- **Tie semantics.**  The verification primitive,
  ``GridSearch.count_closer_than``, counts witnesses *strictly* closer
  than the candidate-to-query distance; an equidistant object must not
  disqualify a reverse nearest neighbor (the paper's open-circle
  semantics).  Flipping that ``<`` to ``<=`` is the classic
  off-by-an-ulp mistake, and the lattice scenarios exist precisely to
  supply exact ties.  It is the one Euclidean witness probe — IGERN's
  verifications (cold or through the shared tick context), CRNN and
  SixPie all run it — so the mutant must reach an IGERN executor on a
  monochromatic scenario, not only a baseline.
- **Probe signature.**  The shared tick context carries an exclusion
  signature through every witness probe — it is both a memo-key
  component and the probe's exclusion set.  The planted mutant drops it
  (what a refactor deriving the exclusions from a truncated key would
  produce): probes collide across batched queries *and* stop excluding
  the candidate itself, which then counts as its own witness.  Only the
  simulators that batch (share a tick context) are corrupted — the
  ``batch``, ``store`` and ``lease`` rows of the lockstep table,
  ``PARTICIPANTS`` in ``repro/fuzz/runner.py`` — so the ``batch``
  divergence kind must fire.  (A key-only drop is provably
  masked today — see the soundness notes in ``repro/grid/context.py``.)

Each test plants its mutant and asserts the whole pipeline reacts: a
short fuzz run reports divergences, the shrinker minimizes one, and the
saved artifact replays deterministically (failing under the mutant,
passing once it is removed).
"""

from repro.fuzz.corpus import artifact_name, replay_artifact, save_artifact
from repro.fuzz.runner import run_fuzz
from repro.fuzz.shrink import shrink
from repro.grid.context import SharedTickContext
from repro.grid.search import GridSearch


def _igern_site(name: str) -> bool:
    """Whether a divergence site names an IGERN executor: the main query
    ``igern`` or an extra query ``extraN``, bare (an answer divergence)
    or with a participant suffix (an invariant site, ``igern[on]``)."""
    executor = name.rpartition(":")[2].partition("[")[0]
    return executor == "igern" or executor.startswith("extra")


def test_planted_mutant_caught_shrunk_and_replayable(tmp_path, monkeypatch):
    from tests.fuzz.conftest import leq_count_closer_than

    with monkeypatch.context() as m:
        m.setattr(GridSearch, "count_closer_than", leq_count_closer_than)

        failures = []
        report = run_fuzz(
            seed=0,
            max_scenarios=12,
            on_result=lambda r: failures.append(r) if not r.ok else None,
        )
        assert not report.ok
        assert report.divergences > 0
        assert failures, "fuzzer reported divergences but surfaced no result"
        assert any(
            _igern_site(d.name)
            for r in failures
            if r.scenario.mode == "mono"
            for d in r.divergences
        ), "the mutant reached monochromatic scenarios only through a baseline"

        res = failures[0]
        outcome = shrink(res.scenario, res)
        assert not outcome.result.ok
        assert outcome.objects <= len(res.scenario.script["initial"])
        assert outcome.ticks <= res.scenario.n_ticks

        path = save_artifact(
            tmp_path / artifact_name(outcome.result),
            outcome.result,
            note="planted <= mutant (mutation smoke test)",
        )
        replay_one = replay_artifact(path)
        replay_two = replay_artifact(path)
        assert not replay_one.ok
        assert [d.describe() for d in replay_one.divergences] == [
            d.describe() for d in replay_two.divergences
        ]

    # Mutant removed: the same artifact must now pass — the divergence
    # was the mutant's, not the artifact's.
    assert replay_artifact(path).ok


_original_witness_count = SharedTickContext.witness_count


def _signatureless_witness_count(
    self, search, oid, center, threshold_sq, signature, category, k,
    threshold_ref=None,
):
    """The planted probe-cache bug: the exclusion signature is dropped —
    from the memo key (probes collide across queries) and from the probe
    itself (the candidate is no longer excluded and self-witnesses)."""
    return _original_witness_count(
        self, search, oid, center, threshold_sq, frozenset(), category, k,
        threshold_ref=threshold_ref,
    )


def test_planted_probe_signature_mutant_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    with monkeypatch.context() as m:
        m.setattr(
            SharedTickContext, "witness_count", _signatureless_witness_count
        )

        failures = []
        report = run_fuzz(
            seed=0,
            max_scenarios=12,
            on_result=lambda r: failures.append(r) if not r.ok else None,
        )
        assert not report.ok
        assert report.divergences > 0
        assert failures, "fuzzer reported divergences but surfaced no result"
        # The corruption lives in the shared context, which only the
        # batch participant uses: the batch lockstep layer must be the
        # one that fires.
        kinds = {d.kind for r in failures for d in r.divergences}
        assert "batch" in kinds

        res = failures[0]
        outcome = shrink(res.scenario, res)
        assert not outcome.result.ok
        assert outcome.objects <= len(res.scenario.script["initial"])
        assert outcome.ticks <= res.scenario.n_ticks

        path = save_artifact(
            tmp_path / artifact_name(outcome.result),
            outcome.result,
            note="planted signature-less witness probe (mutation smoke test)",
        )
        replay_one = replay_artifact(path)
        replay_two = replay_artifact(path)
        assert not replay_one.ok
        assert [d.describe() for d in replay_one.divergences] == [
            d.describe() for d in replay_two.divergences
        ]

    # Mutant removed: the same artifact must now pass.
    assert replay_artifact(path).ok
