"""Artifacts and the committed regression corpus.

The corpus replay test at the bottom is the tier-1 guard: every artifact
under ``tests/fuzz_corpus/`` is a scenario that once exposed a real bug,
and replaying it differentially must stay clean forever.
"""

import json

import pytest

from repro.fuzz.corpus import (
    DEFAULT_CORPUS_DIR,
    artifact_name,
    corpus_entries,
    load_artifact,
    replay_artifact,
    replay_corpus,
    save_artifact,
)
from repro.fuzz.runner import Divergence, run_scenario
from repro.fuzz.scenario import make_scenario


class TestArtifacts:
    def test_save_and_load_round_trip(self, tmp_path):
        result = run_scenario(make_scenario(0, 0))
        result.divergences.append(
            Divergence(kind="oracle", tick=1, name="igern", expected=[1], actual=[])
        )
        path = save_artifact(tmp_path / "one.json", result, note="round trip")
        artifact = load_artifact(path)
        assert artifact.note == "round trip"
        assert artifact.scenario.to_dict() == result.scenario.to_dict()
        assert [d.to_dict() for d in artifact.divergences] == [
            d.to_dict() for d in result.divergences
        ]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-an-artifact.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="no 'scenario' key"):
            load_artifact(path)

    def test_artifact_name_encodes_scenario_and_kind(self):
        result = run_scenario(make_scenario(0, 0))
        assert artifact_name(result).endswith("-regression.json")
        result.divergences.append(
            Divergence(kind="oracle", tick=0, name="igern", expected=[], actual=[])
        )
        name = artifact_name(result)
        sc = result.scenario
        assert name == f"{sc.mode}-{sc.motion}-k{sc.k}-s0i0-oracle.json"

    def test_replay_artifact_reruns_fresh(self, tmp_path):
        result = run_scenario(make_scenario(0, 0))
        path = save_artifact(tmp_path / "clean.json", result)
        assert replay_artifact(path).ok

    def test_corpus_entries_of_missing_directory(self, tmp_path):
        assert corpus_entries(tmp_path / "nope") == []


class TestCommittedCorpus:
    def test_corpus_is_populated(self):
        assert len(corpus_entries()) >= 2

    def test_every_corpus_entry_replays_clean(self):
        """Tier-1 regression replay of the committed failure corpus."""
        results = replay_corpus(DEFAULT_CORPUS_DIR)
        assert results
        bad = {
            path.name: [d.describe() for d in result.divergences]
            for path, result in results
            if not result.ok
        }
        assert not bad, f"corpus regressions: {bad}"

    def test_corpus_entries_document_their_bug(self):
        for path in corpus_entries():
            assert load_artifact(path).note, f"{path.name} has no note"
