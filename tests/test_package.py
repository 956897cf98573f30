"""The public surface: every exported name has a user, and the README runs."""

import ast
import re
import shlex
import warnings
from pathlib import Path

import buresgeo

from buresgeo import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(buresgeo.__file__).resolve().parent
MODULES = {"bg", "buresgeo"} | {p.stem for p in PACKAGE.glob("*.py")}


def referenced_names(paths):
    """Bare names and attributes of a package module (``coset.rho3``,
    ``bg.fidelity``, or the late-bound string "coset.rho3") that the code in
    ``paths`` refers to. A def or class statement is not a reference, so a
    name's own definition does not count."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, name = node.value.partition(".")
                if module in MODULES and name.isidentifier():
                    out.add(name)
    return out


def readme():
    return (ROOT / "README.md").read_text()


def test_every_exported_name_has_a_user():
    used = referenced_names(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    used |= referenced_names((ROOT / "bench").glob("*.py"))
    text = readme()
    unused = [name for name in buresgeo.__all__
              if name not in used and not re.search(rf"(bg\.|`){name}\b", text)]
    assert unused == []


def test_readme_python_blocks_run_without_warnings():
    blocks = re.findall(r"```python\n(.*?)```", readme(), flags=re.S)
    assert blocks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for code in blocks:
            exec(compile(code, "README.md", "exec"), {})


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    # in order, in a fresh directory: the rho line writes the state.json that
    # the fidelity and find-chart lines read
    blocks = re.findall(r"```bash\n(.*?)```", readme(), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("buresgeo ")]
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()
