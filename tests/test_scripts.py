"""The experiment scripts run end to end on small flags and print their tables."""

from pathlib import Path

from cli_runner import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
