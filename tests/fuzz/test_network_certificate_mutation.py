"""Mutation smoke tests for network witness certificates.

With the query still, a network evaluation re-probes only new and moved
candidates, answers whose padded Euclidean ball a moved or inserted
witness may have entered, and non-answers whose certificate broke
(``docs/ALGORITHM.md``, "Network witness certificates").  Three planted
mutants, one per clause of that argument:

- **Trusted certificate.**  The witness re-check is skipped: a
  certificate issued at the current candidate and query positions is
  believed although its witnesses moved away or left the index.
- **No entry test.**  Answers keep their verdict whatever entered their
  ball, so an object moving next to an answer never disqualifies it.
- **Non-strict re-check.**  A witness that moved exactly onto the
  candidate's network threshold still counts (``<=`` instead of
  ``<``).  The oracle sees this only when a tie decides an answer, which
  random scenarios rarely arrange, so the target is the committed tie
  scenario ``tests/fuzz_corpus/bi-roadnet-k2-network-certificate-tie.json``:
  a certificate witness of a bichromatic ``k = 2`` query moves exactly
  onto the query object's position, and the candidate becomes an answer.

The random-stream mutants run the seed-0 window of
``test_network_mutation.py`` (``start=6``: scenarios 6 and 7 are the
first road-graph scenarios of the stream, both under the network
metric).  Each test plants its mutant, asserts the fuzzer catches it,
shrinks the failure, saves it, replays it deterministically, then
unplants it and replays clean.
"""

import repro.core.network as network
from repro.fuzz.corpus import (
    DEFAULT_CORPUS_DIR,
    artifact_name,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.fuzz.runner import run_fuzz, run_scenario
from repro.fuzz.shrink import shrink

TIE_ARTIFACT = DEFAULT_CORPUS_DIR / "bi-roadnet-k2-network-certificate-tie.json"


def _trusting_certificate_holds(metric, cert, entry, q, population, snapshot):
    """The planted bug: positions are compared, witnesses never re-checked."""
    return cert.candidate == entry.position and cert.query == q


def _non_strict_certificate_holds(metric, cert, entry, q, population, snapshot):
    """The planted bug: a witness at exactly the threshold still counts."""
    if cert.candidate != entry.position or cert.query != q:
        return False
    for wid in cert.witnesses:
        wpos = population.get(wid)
        if wpos is None:
            return False
        if wpos != snapshot.get(wid) and not (
            metric.distance_located(entry.located, metric.locate(wpos)) <= entry.radius
        ):
            return False
    return True


def _never_entered(metric, entry, entered):
    """The planted bug: answers keep their verdict without the entry test."""
    return False


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


def _assert_caught_in_window(tmp_path, monkeypatch, name, mutant, note):
    with monkeypatch.context() as m:
        m.setattr(network, name, mutant)
        failures = []
        report = run_fuzz(
            seed=0,
            start=6,
            max_scenarios=2,
            on_result=lambda r: failures.append(r) if not r.ok else None,
        )
        assert not report.ok
        assert failures, "fuzzer reported divergences but surfaced no result"
        assert all(r.scenario.metric == "network" for r in failures)
        # The answers themselves go wrong, not only the state invariants.
        assert "oracle" in {d.kind for r in failures for d in r.divergences}
        path = _assert_shrunk_and_replayable(tmp_path, failures[0], note)
    assert replay_artifact(path).ok


def test_planted_trusted_certificate_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    _assert_caught_in_window(
        tmp_path,
        monkeypatch,
        "certificate_holds",
        _trusting_certificate_holds,
        "planted unchecked network witness certificate",
    )


def test_planted_missing_entry_test_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    _assert_caught_in_window(
        tmp_path,
        monkeypatch,
        "may_have_entered",
        _never_entered,
        "planted network answers kept without the entry test",
    )


def test_planted_non_strict_recheck_caught_on_the_tie_scenario(
    tmp_path, monkeypatch
):
    scenario = load_artifact(TIE_ARTIFACT).scenario
    with monkeypatch.context() as m:
        m.setattr(network, "certificate_holds", _non_strict_certificate_holds)
        result = run_scenario(scenario)
        assert not result.ok, "non-strict network re-check went uncaught"
        assert "oracle" in {d.kind for d in result.divergences}
        path = _assert_shrunk_and_replayable(
            tmp_path, result, "planted <= network certificate re-check"
        )
    assert replay_artifact(path).ok


def test_tie_scenario_is_clean_on_the_shipped_code():
    result = run_scenario(load_artifact(TIE_ARTIFACT).scenario)
    assert result.ok, [d.describe() for d in result.divergences]
