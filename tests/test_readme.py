import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_examples_run(monkeypatch):
    # every python block of the README, each in a fresh namespace
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})


def test_star_import_resolves_every_export():
    # ``from weylglue import *`` raises on a name in ``__all__`` that the
    # package does not define
    import weylglue

    namespace = {}
    exec("from weylglue import *", namespace)
    assert len(set(weylglue.__all__)) == len(weylglue.__all__)
    assert all(namespace[name] is getattr(weylglue, name) for name in weylglue.__all__)
