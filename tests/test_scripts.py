"""The experiment scripts run end to end on small flags and print their
tables; the README's library tour and CLI block run as written."""

import re
import shlex
from pathlib import Path

from exturan.hypergraph import complete, write_file
from cli_runner import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = SCRIPTS.parent / "README.md"


def run_script(name, *args):
    out = run_python(str(SCRIPTS / name), *args)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_deletion_experiment():
    lines = run_script("deletion_experiment.py", "--n", "10", "--seeds", "2")
    assert "seed  sampled  deleted  edges  cliques" in lines
    assert "   0        3        0      3        0" in lines
    assert "   1       10        2      8        0" in lines
    assert "mean surviving edges over 2 seeds: 5.5" in lines


def test_blowup_pipeline_demo():
    lines = run_script("blowup_pipeline_demo.py")
    assert lines[-1] == "result: classes ((0, 1), (3, 4), (6, 7))"


def test_ex_tables():
    lines = run_script("ex_tables.py", "--max-n-graphs", "5", "--max-n-triple", "4")
    rows = [line.split("nodes=")[0].strip() for line in lines if "value=" in line]
    assert rows == [
        "n= 4  value=   1", "n= 5  value=   2",  # triangles, no two sharing an edge
        "n= 4  value=   4", "n= 5  value=  10",  # triangles, no octahedron
        "n= 4  value=   4", "n= 5  value=   6",  # edges, no 4-cycle
        "n= 4  value=   1", "n= 5  value=   1",  # K4 copies, no K4(1,1,1,2)
        "n= 4  value=   1",                      # 4-cliques, no two sharing an edge
        "n= 4  value=   3",                      # 3-edges, no complete 4-set
    ]
    assert "== edges, no 4-cycle ==" in lines


def test_readme_library_tour():
    """The README's ``python`` block runs as written: every name it imports
    is still exported, and it prints the diamond-free triangle record."""
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["2 2 6 6", "0 1", "0 2", "0 3", "0 4", "1 2", "3 4", ""]


def test_readme_cli_block(tmp_path):
    """Every ``exturan`` line of the README's CLI block runs as written, in
    order, in one directory: the later ``verify`` lines read what the
    ``construct`` lines wrote, and ``host.txt`` is the complete 3-uniform
    hypergraph on 5 vertices."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n")[1].split("\n## ")[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("exturan ")]
    assert len(lines) == 8
    write_file(complete(5, 3), tmp_path / "host.txt")
    for argv in lines:
        out = run_python("-m", "exturan", *argv[1:], cwd=tmp_path)
        assert out.returncode == 0, f"{shlex.join(argv)}\n{out.stderr}"
