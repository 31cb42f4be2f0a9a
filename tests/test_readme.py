import pytest

from conftest import check_stated_prints, readme_python_block, stated_prints

LIBRARY = readme_python_block("Library")
STATED = stated_prints(LIBRARY)


def test_library_example_prints_what_it_states():
    assert len(STATED) == 5
    check_stated_prints(LIBRARY)


@pytest.mark.parametrize("index", range(len(STATED)), ids=STATED)
def test_a_changed_stated_value_fails(index):
    # each stated value is compared: editing any one of them fails the check
    lines = LIBRARY.splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("print(") and "  # " in line][index]
    lines[at] += "1"
    with pytest.raises(AssertionError):
        check_stated_prints("\n".join(lines))
