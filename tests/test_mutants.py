import re

from mutants import MUTANTS, ROOT, SRC


def test_every_mutant_names_one_text_and_tests_that_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (SRC / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            name = name.split("[")[0]  # a parametrized case names its function
            assert re.search(rf"^def {name}\(", source, re.M), (m.name, node)
