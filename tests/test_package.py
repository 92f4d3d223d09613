import re
from pathlib import Path

import controversy_scope


def test_exports_resolve_and_version_matches_pyproject():
    names = controversy_scope.__all__
    assert [name for name in names if not hasattr(controversy_scope, name)] == []
    assert len(set(names)) == len(names)
    # read the [project] table by hand: tomllib is not in Python 3.10
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert controversy_scope.__version__ == re.search(r'^version = "(.+)"$', project, re.M)[1]
