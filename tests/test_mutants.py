"""The mutation run (tests/mutants.py) is opt-in; here, cheaply, each
listed mutant must still apply: its old text occurs exactly once in its
file, and it names a distinct id and at least one test."""

import mutants


def test_every_mutant_applies_exactly_once():
    assert {m.id: mutants.occurrences(m) for m in mutants.MUTANTS} == {
        m.id: 1 for m in mutants.MUTANTS
    }


def test_every_mutant_has_its_own_id_and_tests():
    ids = [m.id for m in mutants.MUTANTS]
    assert len(set(ids)) == len(ids)
    assert all(m.tests and m.old != m.new for m in mutants.MUTANTS)
