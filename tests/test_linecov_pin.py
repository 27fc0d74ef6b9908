"""The pin of statements no test reaches (tests/linecov_pin.json) is
checked against the traced suite only by the opt-in linecov run; here,
cheaply, each entry must give a reason and name a statement that the
source still holds."""

from collections import Counter
from pathlib import Path

import linecov


def test_every_pinned_statement_exists_and_has_a_reason():
    present = Counter()
    for path in sorted(linecov.PACKAGE.glob("*.py")):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for node, definition in linecov.statements(path):
            present[linecov.pin_key(path, lines, node, definition)] += 1
    pin = linecov.load_pin()
    assert all(set(e) == {"file", "definition", "statement", "reason"} for e in pin)
    assert all(e["reason"].strip() for e in pin)
    pinned = Counter((e["file"], e["definition"], e["statement"]) for e in pin)
    assert not pinned - present
