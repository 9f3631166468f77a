"""The mutation catalogue of `scripts/mutants.py` stays anchored in `src/`.

Running the mutants takes minutes (`python3 scripts/mutants.py`); this only
checks that each row still applies to the checked-in sources, so a change to
an anchored line has to update its row, and that no two rows share a name,
since reports from two trees are compared row by row."""

import os
import runpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_row_applies_once_to_the_checked_in_sources():
    script = runpy.run_path(os.path.join(ROOT, "scripts", "mutants.py"))
    names = [name for name, *_ in script["MUTANTS"]]
    assert len(set(names)) == len(names), "two rows share a name"
    stale = []
    for name, file, old, new in script["MUTANTS"]:
        with open(os.path.join(ROOT, "src", "metareweight", file)) as f:
            problem = script["anchor_problem"](f.read(), old, new)
        if problem:
            stale.append(f"{name}: {problem} in {file}")
    assert not stale, stale
