import os
import subprocess
import sys

from util import src_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=src_env(),
    )


def test_scan_script_small_bound():
    res = run_script("scan_sym16gon.py", "--bound", "2")
    assert res.returncode == 0, res.stderr
    assert "every scanned direction fails finite generation" in res.stdout


def test_search_script_finds_the_bundled_weights():
    res = run_script(
        "search_sym16gon.py", "--max-weight", "3", "--bound", "2", "--limit", "1"
    )
    assert res.returncode == 0, res.stderr
    assert "(1, 1, 1, 3)" in res.stdout


def test_render_script(tmp_path):
    res = run_script("render_figures.py", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    names = sorted(os.listdir(tmp_path))
    assert "slanted_quad_nobody.svg" in names
    assert "sym16gon.svg" in names
    svg = (tmp_path / "slanted_quad_nobody.svg").read_text()
    assert svg.startswith("<svg")


def test_code_lines_script(tmp_path):
    res = run_script("code_lines.py")
    assert res.returncode == 0, res.stderr
    rows = dict(line.rsplit(None, 1) for line in res.stdout.splitlines())
    counts = {name: int(n.replace(",", "")) for name, n in rows.items()}
    total = counts.pop("total")
    modules = {n[:-3] for n in os.listdir(os.path.join(ROOT, "src", "toricfg"))
               if n.endswith(".py")}
    assert set(counts) == modules and total == sum(counts.values())
    # blank lines, comments and docstrings (module, class, function) are
    # not code; other strings, decorators and signatures are
    (tmp_path / "m.py").write_text(
        '"""Module\n\ndocstring."""\n\n# comment\nX = """not a\ndocstring"""\n\n\n'
        "@staticmethod\ndef f(a,\n      b):\n    '''Doc.'''\n    return a  # tail\n\n"
        "class C:\n    \"\"\"Doc.\"\"\"\n\n    y = 1\n"
    )
    res = run_script("code_lines.py", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["m", "8", "total", "8"]
