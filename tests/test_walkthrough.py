"""The docs/ALGORITHM.md walkthrough example stays true.

Pins the concrete answers documented in the walkthrough so the document
cannot silently drift from the code.
"""

from repro.core.mono import MonoIGERN
from repro.grid.index import GridIndex


OBJECTS = {
    1: (0.62, 0.52),
    2: (0.48, 0.70),
    3: (0.30, 0.42),
    4: (0.85, 0.80),
    5: (0.88, 0.78),
    6: (0.15, 0.85),
    7: (0.10, 0.15),
    8: (0.80, 0.12),
    9: (0.82, 0.15),
}
QUERY = (0.5, 0.5)


class TestWalkthrough:
    def test_initial_matches_document(self):
        grid = GridIndex(12)
        for oid, pos in OBJECTS.items():
            grid.insert(oid, pos)
        algo = MonoIGERN(grid)
        state, report = algo.initial(QUERY)
        assert sorted(state.monitored) == [1, 2, 3]
        assert sorted(report.answer) == [1, 2, 3]

    def test_incremental_matches_document(self):
        grid = GridIndex(12)
        for oid, pos in OBJECTS.items():
            grid.insert(oid, pos)
        algo = MonoIGERN(grid)
        state, _ = algo.initial(QUERY)
        grid.move(3, (0.30, 0.05))
        grid.move(7, (0.40, 0.44))
        report = algo.incremental(state, QUERY)
        assert sorted(state.monitored) == [1, 2, 7]
        assert sorted(report.answer) == [1, 2, 7]
        assert 3 not in state.monitored  # dominated + redundant: pruned

    def test_walkthrough_script_runs(self, capsys):
        import importlib.util
        from pathlib import Path

        script = Path(__file__).parent.parent / "docs" / "walkthrough.py"
        spec = importlib.util.spec_from_file_location("walkthrough", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        out = capsys.readouterr().out
        assert "MONO initial" in out
        assert "Q" in out
