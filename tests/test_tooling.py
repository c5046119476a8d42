"""The benchmark's tracer wraps cgm functions by name; keep those names alive.

`bench/tracer.py` is loaded from the checkout as it is (nothing under
`bench/` is changed) and every function and method it patches must still
exist where it looks for it, and a traced pipeline must still yield every
per-layer metric, so that a cleanup in `src/cgm` cannot break
`bench/run.py --trace 1` without a tier-1 failure.  `bench/workloads.py`
is loaded the same way: one cycle of its Monte Carlo ops, one pass over its
dense-mixture ops, nf-roundtrip's anchor ops (whose certificates the
workload pins by digest) and the first 600 axiom-suite ops must pass the
workload's own checks.  And no `src/cgm` module imports a name it never
uses, nor defines a function or class that nothing names, nor raises an
exception outside `CgmError` at a site not listed here.  Nor may any output
depend on the interpreter's string hash seed.
"""

import ast
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import cgm
from cgm import errors

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


def load(path: Path, name: str):
    # Run the source in a fresh module: no import path change and no
    # bytecode written next to it.
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load(TRACER, "cgm_bench_tracer")


def test_span_functions_exist(tracer):
    missing = [f"{module.__name__}.{name}"
               for module, names in tracer.SPAN_FUNCTIONS.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []


def test_leaf_functions_exist(tracer):
    from cgm import linalg
    missing = [name for name in tracer.LEAF_FUNCTIONS
               if not callable(getattr(linalg, name, None))]
    assert missing == []


def test_patched_methods_exist(tracer):
    # The tracer reads methods from the class's own __dict__.
    missing = [f"{cls.__name__}.{attr}"
               for cls, attr, _ in tracer.LEAF_METHODS + tracer.SPAN_METHODS
               if attr not in cls.__dict__]
    assert missing == []


def test_traced_pipeline_reports_every_layer_metric(tracer):
    # Everything the tracer reads on the way (kernel tables, factor widths,
    # cache statistics, draw counts) must still be there: one small mixed
    # term goes through every traced layer.
    from cgm import dsl, linalg, normalform, semantics
    spec = json.loads((TRACER.parent.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    names = [(module, name) for module, names in tracer.SPAN_FUNCTIONS.items()
             for name in names]
    names += [(linalg, name) for name in tracer.LEAF_FUNCTIONS]
    names += [(cls, attr) for cls, attr, _ in
              tracer.LEAF_METHODS + tracer.SPAN_METHODS]
    before = [(vars(owner), key, vars(owner)[key]) for owner, key in names]
    run = tracer.Tracer()
    run.install()
    try:
        before += [(owner if isinstance(owner, dict) else vars(owner), key,
                    original) for owner, key, original in run.patched]
        run.begin_ops()
        run.next_op(0)
        term = dsl.parse("flip(1/3) * stdnormal * one ; copyB * id(RR) ; "
                         "id(B) * ite")
        for backend in ("rational", "float"):
            semantics.evaluate(term, backend=backend)
        mix = semantics.evaluate(term)
        emitted = normalform.emit_nf(normalform.disintegrate(mix))
        same, _ = normalform.decide_equiv(term, emitted)
        semantics.sample_many(mix, (), [], 50, seed=1)
        run.end_ops()
        metrics = run.metrics()
    finally:
        run.uninstall()
    assert same
    assert sorted(wanted - set(metrics)) == []
    assert metrics["semantics.evaluate.calls"] >= 5
    assert metrics["semantics.sample_many.draws_per_s"] > 0
    assert metrics["linalg.peak_factor_width"] >= 1
    assert len(before) > len(names)
    assert [key for space, key, original in before
            if space[key] is not original] == []


def test_monte_carlo_cycle_passes_its_oracle(tracer, monkeypatch):
    # The workloads import the tracer by its module name.
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    workloads = load(WORKLOADS, "cgm_bench_workloads")
    mc = workloads.MonteCarlo(1)
    cycle = 3 * mc.random_kernels
    for op in mc.ops[:cycle]:
        assert mc.check(op, mc.run(op))
    assert mc.finish(cycle) == set()


def test_dense_mixture_ops_pass_their_oracle(tracer, monkeypatch):
    # Each op's mean and covariance must equal the exact closed form.
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    workloads = load(WORKLOADS, "cgm_bench_workloads")
    dense = workloads.DenseMixture(1)
    for op in dense.ops:
        assert dense.check(op, dense.run(op))
    assert dense.finish(len(dense.ops)) == set()


def test_nf_roundtrip_anchors_match_the_pinned_digest(tracer, monkeypatch):
    # The anchor circuits' certificates must hash to the digest that every
    # nf-roundtrip run checks in `finish`.
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    workloads = load(WORKLOADS, "cgm_bench_workloads")
    nf = workloads.NfRoundtrip(1)
    for op in nf.ops[:nf.anchors]:
        assert nf.check(op, nf.run(op))
    assert nf.finish(nf.anchors) == set()


def test_axiom_suite_ops_pass_their_oracle(tracer, monkeypatch):
    # Each sound instance compares equal and each mutant unequal, on both
    # backends.
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    workloads = load(WORKLOADS, "cgm_bench_workloads")
    suite = workloads.AxiomSuite(1)
    failed = [(op[0], op[4]) for op in suite.ops[:600]
              if not suite.check(op, suite.run(op))]
    assert failed == []


def test_no_module_imports_an_unused_name():
    # `__init__.py` imports to re-export; every other module must read each
    # name it imports (as a name or as the base of an attribute).
    unused = []
    for path in sorted(Path(cgm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imported, read = {}, set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                imported.update(((alias.asname or alias.name).split(".")[0],
                                 node.lineno) for alias in node.names)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []


def test_every_definition_is_named_elsewhere():
    # A module-level function or class of `src/cgm` (not `__init__.py`,
    # which only re-exports) must be named outside its own body: in
    # `src/cgm`, in `scripts/` or in `bench/`, as a name, an attribute or a
    # string (the tracer wraps functions by their names).  Tests do not
    # count: code that only tests call is not kept for them.
    root = Path(cgm.__file__).parent
    files = [path for path in sorted(root.glob("*.py")) if path.name != "__init__.py"]
    files += sorted((root.parent.parent / "scripts").glob("*.py"))
    files += sorted(BENCH.glob("*.py"))
    named, own = Counter(), {}
    for path in files:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            found = Counter(
                node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else node.value
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute)) or
                isinstance(node, ast.Constant) and isinstance(node.value, str))
            named.update(found)
            if path.parent == root and isinstance(
                    statement, (ast.FunctionDef, ast.ClassDef)):
                own[path.name, statement.name] = found[statement.name]
    unnamed = [f"{module}: {name}" for (module, name), count in own.items()
               if named[name] <= count]
    assert unnamed == []


# Every `raise` in `src/cgm` of an exception that is not a `CgmError`, by
# module, enclosing function (class-qualified) and exception, once per site.
# A new one fails here until it raises a typed error or is listed.
UNTYPED_RAISES = (
    ("axioms", "instantiate", "AssertionError"),
    ("axioms", "rewrite_at", "AssertionError"),
    ("cli", "main", "ValueError"),
    ("cli", "main", "ValueError"),
    ("linalg", "four_squares", "AssertionError"),
    ("randcircuit", "TermSampler.__init__", "ValueError"),
    ("randcircuit", "TermSampler._source", "ValueError"),
    ("semantics", "interp_generator", "AssertionError"),
)


def test_untyped_raises_are_listed():
    # A bare `raise` re-raises what was caught, so it is not a site.
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = ast.unparse(exc)
                typed = getattr(errors, name, None)
                if not (isinstance(typed, type) and issubclass(typed, errors.CgmError)):
                    found.append((module, where, name))
            visit(child, module, inner)

    for path in sorted(Path(cgm.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    assert sorted(found) == sorted(UNTYPED_RAISES)


# Prints 100 sampled closed terms, then runs `cgm eval --format json` and
# `cgm normalize` on the file named by its argument.
HASH_SEED_CHILD = """
import random, sys
from cgm import cli
from cgm.dsl import print_term
from cgm.randcircuit import TermSampler
sampler = TermSampler(random.Random(2027))
for _ in range(100):
    print(print_term(sampler.closed_term()))
for argv in (["eval", sys.argv[1], "--format", "json"], ["normalize", sys.argv[1]]):
    print(cli.main(argv))
"""

# Boolean and real wires in, out and in between.
MIXED_CIRCUIT = """copyB * (copyR ; id(R) * scal(2)) ; id(B) * ite ;
id(B) * (id(R) * stdnormal ; add) ; (flip(1/3) * id(B) ; and) * id(R)
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Enum members and term nodes hash by identity or by a seeded string
    # hash, so nothing printed may be ordered by a hash.
    circuit = tmp_path / "mixed.cgm"
    circuit.write_text(MIXED_CIRCUIT)
    src = str(Path(cgm.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_CHILD, str(circuit)],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert len(text.splitlines()) > 102 and text.endswith("\n0\n")
    assert '"outWord": "BR"' in text
