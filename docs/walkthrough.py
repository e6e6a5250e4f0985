"""Regenerate the worked example in docs/ALGORITHM.md.

Run with::

    python docs/walkthrough.py
"""

from repro.core.mono import MonoIGERN
from repro.grid.index import GridIndex
from repro.viz import render_query_state

#: Nine objects around a central query, like the paper's Figure 1.
OBJECTS = {
    1: (0.62, 0.52),  # nearest to q; an RNN
    2: (0.48, 0.70),
    3: (0.30, 0.42),
    4: (0.85, 0.80),
    5: (0.88, 0.78),  # blocks 4
    6: (0.15, 0.85),
    7: (0.10, 0.15),
    8: (0.80, 0.12),
    9: (0.82, 0.15),  # mutually blocking with 8
}
QUERY = (0.5, 0.5)


def main() -> None:
    grid = GridIndex(12)
    for oid, pos in OBJECTS.items():
        grid.insert(oid, pos)

    algo = MonoIGERN(grid)
    state, report = algo.initial(QUERY)
    print("MONO initial:")
    print("  candidates:", sorted(state.monitored))
    print("  answer:", sorted(report.answer))
    print(render_query_state(state, grid))
    print()

    # Object 3 wanders far away; object 7 walks into the region.
    grid.move(3, (0.30, 0.05))
    grid.move(7, (0.40, 0.44))
    report = algo.incremental(state, QUERY)
    print("MONO incremental after moves (3 leaves, 7 enters):")
    print("  candidates:", sorted(state.monitored))
    print("  answer:", sorted(report.answer))
    print(render_query_state(state, grid))


if __name__ == "__main__":
    main()
