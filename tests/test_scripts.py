import json
import os
import platform
import subprocess
import sys

from util import ROOT, load_script, src_env


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


def test_replay_script_digest_repeats():
    # two replays of the same cases print the same digest, whatever
    # temporary directory each one writes its cases into
    runs = [run_script("replay_cases.py", "--workloads", "allfan", "--seeds", "1", "--cases", "5")
            for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    digest, calls = runs[0].stdout.split()[:2]
    assert len(digest) == 64 and calls == "10"
    assert runs[1].stdout == runs[0].stdout


def result_line(tail_ms, throughput, failed=0):
    """A result line of bench/run.py --trace 0, parsed."""
    metrics = {"latency_tail_ms": {"value": tail_ms, "unit": "ms"},
               "throughput": {"value": throughput, "unit": "units/s"}}
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


def test_bench_pairs_summary_on_canned_results(tmp_path):
    bench_pairs = load_script("bench_pairs.py")
    metrics = [{"name": "latency_tail_ms", "unit": "ms", "better": "lower"},
               {"name": "throughput", "unit": "units/s", "better": "higher"}]
    pairs = [
        (301, result_line(36.0, 64.0), result_line(28.0, 78.0)),
        (302, result_line(35.0, 66.0), result_line(29.0, 77.0)),
        (303, result_line(34.0, 70.0), result_line(35.0, 60.0, failed=1)),
        (304, result_line(37.0, 60.0), None),  # a run that failed
    ]
    lines = bench_pairs.summarize(metrics, pairs)
    assert lines[0] == "seeds 301 302 303 304; 3 complete pairs"
    assert lines[1] == "parent: 0 runs failed, 0 of 400 operations failed"
    assert lines[2] == "change: 1 runs failed, 1 of 300 operations failed"
    rows = {line.split()[0]: line.split()[1:] for line in lines[4:6]}
    # medians 35 -> 29 and 66 -> 77; inclusive quartiles of 36/35/34 are 34.5 and 35.5
    assert rows["latency_tail_ms"] == ["35", "29", "-17.1%", "1", "3.5", "2/3"]
    assert rows["throughput"] == ["66", "77", "+16.7%", "3", "9", "2/3"]
    assert lines[6] == "latency_tail_ms (ms, lower is better): 36/35/34 -> 28/29/35"
    assert bench_pairs.parse_seeds("301-303") == [301, 302, 303]
    assert bench_pairs.parse_seeds("7") == [7]
    # the --json summary, stored under its workload next to another one
    revisions = {"parent": {"rev": "HEAD~1", "commit": "a" * 40},
                 "change": {"rev": "HEAD", "commit": "b" * 40}}
    path = tmp_path / "bench.json"
    for workload in ("semigroup", "analyze"):
        record = bench_pairs.summary_record(workload, revisions, 20, metrics, pairs)
        bench_pairs.store(str(path), record)
    doc = json.loads(path.read_text())
    assert sorted(doc["workloads"]) == ["analyze", "semigroup"]
    stored = doc["workloads"]["semigroup"]
    assert stored["revisions"] == revisions and stored["seconds"] == 20
    assert stored["python"] == platform.python_version()
    assert stored["seeds"] == [301, 302, 303, 304]
    assert stored["pairs"][3] == {"seed": 304, "parent": pairs[3][1], "change": None}
    tail, throughput = stored["metrics"]
    assert tail["name"] == "latency_tail_ms" and tail["better"] == "lower"
    assert (tail["parent"], tail["change"]) == ([36.0, 35.0, 34.0], [28.0, 29.0, 35.0])
    assert tail["medians"] == [35, 29] and tail["quartiles"][0] == [34.5, 35.5]
    assert (tail["wins"], throughput["wins"]) == (2, 2)
    assert throughput["medians"] == [66, 77]


def test_bench_pairs_compares_the_benchmark_files(tmp_path):
    bench_pairs = load_script("bench_pairs.py")
    sides = []
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("pass\n")
        (tmp_path / side / "BENCHMARK.json").write_text("{}\n")
        (tmp_path / side / "README.md").write_text(side)
        sides.append(str(tmp_path / side))
    # files outside bench/ and BENCHMARK.json may differ
    assert bench_pairs.tree_digest(sides[0]) == bench_pairs.tree_digest(sides[1])
    (tmp_path / "change" / "bench" / "run.py").write_text("pass  # changed\n")
    assert bench_pairs.tree_digest(sides[0]) != bench_pairs.tree_digest(sides[1])
