"""Smoke run of ``examples/solver_census.py`` at tiny shapes.

The census measures how long each registered NLS solver takes to reach
BPP's error; ``docs/ARCHITECTURE.md`` records the full-size table.  Here it
runs end to end with every shape divided by 32, one seed and one pass.
"""

import importlib.util
import sys
from pathlib import Path

from repro.nls import available_solvers

_SCRIPT = Path(__file__).resolve().parents[1] / "examples" / "solver_census.py"


def _census():
    if "solver_census" not in sys.modules:
        spec = importlib.util.spec_from_file_location("solver_census", _SCRIPT)
        module = sys.modules["solver_census"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["solver_census"]


def test_the_census_prints_one_row_per_input_and_one_column_per_solver(capsys):
    census = _census()
    census.main(["--smoke", "--quiet"])
    header, *table = capsys.readouterr().out.strip().splitlines()
    assert "BLAS threads 1; seeds 7; 1 pass(es); cap 5× BPP's time" in header
    columns = [c.strip() for c in table[0].strip("|").split("|")]
    assert columns[2:] == available_solvers()
    rows = table[2:]
    assert [row.split()[1] for row in rows] == [i.name for i in census.INPUTS]
    bpp = columns.index("bpp")
    for row in rows:
        cells = [c.strip() for c in row.strip("|").split("|")]
        # BPP reaches its own target, and some solver is the fastest to it.
        assert cells[bpp].strip("*").endswith(" it)"), row
        assert sum(c.startswith("**") for c in cells) == 1, row


def test_pivot_rounds_are_counted_only_while_asked_for():
    census = _census()
    solve = census.BlockPrincipalPivoting.solve
    with census._pivot_rounds() as rounds:
        census.fit(census.planted_lowrank(30, 20, 3, seed=0), 3, max_iters=2, seed=0)
    assert len(rounds) == 4  # two solves per iteration
    assert census.BlockPrincipalPivoting.solve is solve
