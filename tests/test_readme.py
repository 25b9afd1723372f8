"""The README's Library block runs as written and shows what it prints.

The block holds one statement per line.  A line with a trailing comment
is an expression whose comment is exactly the `repr` of its value.
"""
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def test_library_block_comments_are_reprs():
    namespace: dict = {}
    checked = 0
    for line in library_block():
        code, sep, shown = line.partition("#")
        if not code.strip():
            continue
        if not sep:
            exec(code, namespace)
            continue
        assert repr(eval(code, namespace)) == shown.strip(), line
        checked += 1
    assert checked == 7
