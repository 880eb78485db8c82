"""The mutation catalogue of `tests/mutations.py` still fits the code: each
old text occurs exactly once in its file, the mutated file still compiles,
and the test expected to kill the mutation exists.  Running the mutations
is left to `python tests/mutations.py`."""

from pathlib import Path

from mutations import CATALOGUE

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutation_applies_once():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)
    for m in CATALOGUE:
        text = (ROOT / m.file).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        compile(text.replace(m.old, m.new), m.file, "exec")
        test_file, _, test_name = m.killer.partition("::")
        assert f"\ndef {test_name.split('[')[0]}(" in (ROOT / test_file).read_text(), m.name
