import ast
import glob
import importlib
import os
import subprocess
import sys
import types

import pytest

import toricfg
from toricfg import cli, cones, criterion, semigroup
from toricfg.geometry import RatPolygon
from paper import cut_construction
from util import ROOT, SRC, load_example, p1p1_fan, src_env


def test_star_import_binds_no_module():
    namespace = {}
    exec("from toricfg import *", namespace)
    namespace.pop("__builtins__")
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert sorted(namespace) == sorted(toricfg.__all__)
    assert "failing_cones" in namespace and "is_strongly_decomposable" in namespace


def test_importing_the_cli_loads_no_dataclass_machinery():
    # the records are named tuples: a fresh import of the CLI loads neither
    # dataclasses nor the inspect, ast and dis modules it would bring in
    code = ("import sys; before = set(sys.modules); import toricfg.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


def test_importing_the_cli_loads_every_module_of_the_package():
    # the package holds only what runs: a fresh import of the CLI reaches
    # every module under src/toricfg, so none is kept for tests or scripts
    names = sorted(n[:-3] for n in os.listdir(os.path.join(SRC, "toricfg")) if n.endswith(".py"))
    expected = sorted("toricfg" if n == "__init__" else "toricfg." + n for n in names)
    code = ("import sys, toricfg.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'toricfg'))")
    run = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == expected


def records():
    """One instance of every record type, built by the code that builds it."""
    problem = load_example("slanted_quad")
    ctx = problem.context
    verdict = criterion.is_finitely_generated(ctx)
    return [
        ctx, ctx.flag, ctx.p_d, ctx.divisor, ctx.divisor.fan, cones.cone((1, 0), (0, 1)),
        semigroup.semigroup_slice(ctx, 2), cut_construction(ctx, 2, 1),
        semigroup.newton_okounkov_body(ctx),
        verdict, verdict.segment, criterion.fg_for_all_divisors(p1p1_fan(), (1, 2)),
        criterion.construct_bad_divisor(p1p1_fan(), cones.halfplane((1, 0), (1, 2)), (1, 2)),
        problem,
    ]


def test_record_fields_are_read_only():
    built = records()
    assert {type(r).__name__ for r in built} == {
        "FlagContext", "FlagData", "RatPolygon", "ToricDivisor", "Fan2", "Cone2",
        "SemigroupSlice", "CutPieces", "NOBody", "FGVerdict",
        "SegmentData", "FGAllResult", "BadDivisorConstruction", "Problem",
    }
    for record in built:
        for name in record._fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)


def test_cached_views_leave_equality_and_hash_alone():
    # a read view sits in the instance dict, outside the compared fields
    p = load_example("slanted_quad").context.p_d
    assert p.vertices and p.halfplanes and {"vertices", "lines", "halfplanes"} <= set(vars(p))
    fresh = RatPolygon.from_vertices(p.vertices)
    assert not {"vertices", "lines"} & set(vars(fresh)) and p == fresh and hash(p) == hash(fresh)
    # the record is (scale, ring): lines and dim are read off the ring
    assert tuple(p) == (p.scale, p.ring) and fresh.lines == p.lines and fresh.dim == p.dim == 2
    ctx, fresh_ctx = load_example("slanted_quad").context, load_example("slanted_quad").context
    assert ctx.q_hat and "q_hat" in vars(ctx) and "q_hat" not in vars(fresh_ctx)
    assert ctx == fresh_ctx and hash(ctx) == hash(fresh_ctx)


# bench/spans.py traces cones.hilbert_basis by that string, which a name
# scan does not see; no command reads Hilbert bases yet, and the benchmark
# counts the calls of the traced name
TRACED_BY_NAME = {("cones", "hilbert_basis")}


def _referenced_names(node, own=()):
    """Names, attributes and import aliases under node, but those in own."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names = [n.id]
        elif isinstance(n, ast.Attribute):
            names = [n.attr]
        elif isinstance(n, ast.alias):
            names = [n.name.rpartition(".")[2], n.asname]
        else:
            continue
        yield from (name for name in names if name and name not in own)


def _program_paths():
    """The Python files of the package, the scripts and the benchmark."""
    return (glob.glob(os.path.join(SRC, "toricfg", "*.py")) + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
            + glob.glob(os.path.join(ROOT, "bench", "**", "*.py"), recursive=True))


def test_every_definition_of_the_package_has_a_program_caller():
    # the package holds the engine: each top-level function and class, and
    # each public method of a class, is named by other code of the package,
    # a script or the benchmark (its own body and the re-exports of
    # __init__ do not count), so code that only tests use lives under tests/
    package = os.path.join(SRC, "toricfg")
    defined, referenced = set(), set()
    for path in _program_paths():
        if path == os.path.join(package, "__init__.py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)[:-3]
        for stmt in tree.body:
            if os.path.dirname(path) != package or not isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)):
                referenced.update(_referenced_names(stmt))
                continue
            defined.add((module, stmt.name))
            if isinstance(stmt, ast.FunctionDef):
                referenced.update(_referenced_names(stmt, {stmt.name}))
                continue
            for item in stmt.bases + stmt.keywords + stmt.decorator_list + stmt.body:
                own = {stmt.name}
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    own.add(item.name)
                    defined.add((module, f"{stmt.name}.{item.name}"))
                referenced.update(_referenced_names(item, own))
    assert len(defined) > 145
    unused = {d for d in defined if d[1].rpartition(".")[2] not in referenced}
    assert sorted(unused - TRACED_BY_NAME) == []


def test_every_record_field_is_read_by_program_code():
    # each field of a NamedTuple record of the package is named, as an
    # attribute or a keyword, by code of the package, a script or the
    # benchmark, so a record holds nothing that only tests read
    fields, named = set(), set()
    for path in _program_paths():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.keyword):
                named.add(node.arg)
            elif (isinstance(node, ast.ClassDef) and path.startswith(SRC)
                  and any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)):
                fields.update((node.name, stmt.target.id) for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign))
    assert len(fields) > 40
    assert sorted(f for f in fields if f[1] not in named) == []


def test_only_the_cli_catches_exceptions():
    # the engine decides by values, not by exceptions: an except clause
    # sits only in cli.py, which turns invalid input into exit code 2
    handlers = []
    for path in sorted(glob.glob(os.path.join(SRC, "toricfg", "*.py"))):
        if os.path.basename(path) == "cli.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        handlers += [(os.path.basename(path), n.lineno) for n in ast.walk(tree)
                     if isinstance(n, ast.ExceptHandler)]
    assert handlers == []


def test_every_functools_cache_of_the_package_is_bounded():
    # the benchmark keeps a pass's caches alive across all its cases, so an
    # unbounded cache would grow with every case: each functools cache of
    # the package, at module level or on a class, has a finite maxsize, and
    # each use of lru_cache or cache in the source made one of them
    caches, uses = {}, 0
    for path in sorted(glob.glob(os.path.join(SRC, "toricfg", "*.py"))):
        name = os.path.basename(path)[:-3]
        module = importlib.import_module("toricfg" if name == "__init__" else "toricfg." + name)
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            for attr, value in vars(owner).items():
                if callable(getattr(value, "cache_info", None)):
                    caches[f"{module.__name__}.{attr}"] = value.cache_info().maxsize
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        uses += sum(getattr(n, "id", getattr(n, "attr", None)) in ("lru_cache", "cache")
                    for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute)))
    assert "toricfg.geometry._normal_set" in caches
    assert [k for k, size in caches.items() if size is None] == []
    assert uses == len(caches)


def test_package_imports_sit_at_top_level_and_form_no_cycle():
    # each import of one package module by another is a top-level
    # statement, so an import never waits inside a call, and the imports
    # form an acyclic graph (cli -> criterion -> oracles -> cones ->
    # geometry, say), so every module can be read after the ones it uses
    package = os.path.join(SRC, "toricfg")
    graph, nested = {}, []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        graph[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                # "from . import x" names modules, "from .x import f" one
                targets = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module[8:]] if node.module.startswith("toricfg.") else []
            elif isinstance(node, ast.Import):
                targets = [a.name[8:] for a in node.names if a.name.startswith("toricfg.")]
            else:
                continue
            graph[module].update(t.split(".")[0] for t in targets)
            if targets and node not in tree.body:
                nested.append((os.path.basename(path), node.lineno))
    assert nested == []
    assert len(graph) > 5 and graph["cones"] == {"geometry"}
    done = set()
    while len(done) < len(graph):
        ready = {m for m in graph if m not in done and graph[m] <= done}
        assert ready, sorted(set(graph) - done)  # the rest lie on or above a cycle
        done |= ready


def _compact(value):
    """A value as the README writes it: tuples and points without spaces,
    rationals as p/q."""
    if isinstance(value, tuple):
        return "(" + ",".join(map(_compact, value)) + ")"
    return str(value)


def test_readme_quick_start_values_match_their_comments():
    # each expression of README's "Library quick start" block is followed
    # by its value as a comment, on its own line or on the next one
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + [""]
    namespace, checked = {}, 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        comment = lines[stmt.end_lineno - 1].partition("#")[2] or lines[stmt.end_lineno].partition("#")[2]
        expected = "".join(comment.partition(" \u2014 ")[0].split())
        assert _compact(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)) == expected
        checked += 1
    assert checked == 5
