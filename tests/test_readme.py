import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    # the example imports from the package top level, so this pins its exports
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    picp, width = map(float, capsys.readouterr().out.split())
    assert 0.0 <= picp <= 1.0
    assert width > 0.0
