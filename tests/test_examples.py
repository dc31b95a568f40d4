"""The README library example runs as printed, and the benchmark's smoke run
passes against the current sources (the benchmark imports `uglmn` by name)."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_example():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    product, expansion = out.getvalue().splitlines()
    assert product == (
        "LinComb(((v)/(v^2 - 1))*(0,0;0,0)(1,-1) + ((-v)/(v^2 - 1))*(0,0;0,0)(-1,-1)"
        " + (-1)*(0,1;1,0)(0,0))"
    )
    assert expansion.startswith("((VFunc('1'), (GenLetter(kind='K', index=1, power=1),")


def test_benchmark_smoke_run():
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert json.loads(res.stdout.strip().splitlines()[-1]) == {"smoke": "pass"}
