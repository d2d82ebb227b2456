"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_python_api_example_runs_as_written(capsys):
    text = README.read_text()
    section = text[text.index("\n## Python API\n") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # the values its comment gives
    assert (round(namespace["sq"], 4), round(namespace["anti"], 4)) == (-1.1917, 4.3939)
    report = namespace["report"]
    printed = capsys.readouterr().out.splitlines()[-1]
    assert printed == f"{report['squeezing_db']} {report['antisqueezing_db']} {report['error_db']}"
    assert report["squeezing_db"] < 0 < report["antisqueezing_db"]
