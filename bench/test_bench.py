"""Tests of the benchmark itself: tracer self-check and determinism.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from cgm import dsl, normalform, semantics  # noqa: E402
from cgm.axioms import (CATALOG, _trial_seed, get_axiom,  # noqa: E402
                        instantiate, sample_binding)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Counts on the seed commit's criterion-1 and criterion-6 corpora (seed 2026).
CRITERION1_GENERATOR_CALLS = 49_788
CRITERION1_DISTINCT_GENERATORS = 99
CRITERION6_GATES = (2_975, 11_928)
CRITERION6_CERTIFICATE_DIGEST = (
    "17bb025ddb29d19d42fc0ca5b15eb7fc1b43676d2b41e3f768a4a779572c807a")

COUNT_SUFFIXES = (".calls", "_ratio", "_share", "peak_rows",
                  "peak_components", "peak_real_dim", "peak_factor_width")


def traced(body):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_ops()
        tracer.next_op(0)
        body()
        tracer.end_ops()
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_counts_criterion1_generators():
    pairs = []
    for name in CATALOG:
        schema = get_axiom(name)
        for index in range(100):
            rng = random.Random(_trial_seed(2026, name, index))
            pairs.append(instantiate(schema, sample_binding(schema, rng)))

    def body():
        for lhs, rhs in pairs:
            semantics.evaluate(lhs)
            semantics.evaluate(rhs)

    tracer = traced(body)
    metrics = tracer.metrics()
    assert metrics["semantics.interp_generator.calls"] == CRITERION1_GENERATOR_CALLS
    assert len(tracer.distinct_generators) == CRITERION1_DISTINCT_GENERATORS


def test_tracer_counts_criterion6_gates_and_pins_certificates():
    circuits = workloads.criterion6_circuits(random.Random(2026 + 6), 200)
    trees = []

    def body():
        for term in circuits:
            tree = normalform.disintegrate(semantics.evaluate(term))
            normalform.emit_nf(tree)
            trees.append(tree)

    tracer = traced(body)
    assert (tracer.gates_in, tracer.gates_out) == CRITERION6_GATES
    assert tracer.metrics()["nf_gate_ratio"] == pytest.approx(4.01, abs=5e-3)
    assert workloads.certificate_digest(trees) == CRITERION6_CERTIFICATE_DIGEST


def test_uninstall_restores_every_function():
    before = (semantics.evaluate, normalform.evaluate, dsl.parse,
              semantics.Matrix.__matmul__)
    traced(lambda: None)
    after = (semantics.evaluate, normalform.evaluate, dsl.parse,
             semantics.Matrix.__matmul__)
    assert before == after


def inputs(workload):
    if isinstance(workload, workloads.AxiomSuite):
        return [(dsl.print_term(lhs), dsl.print_term(rhs), backend)
                for _, lhs, rhs, _, backend in workload.ops]
    if isinstance(workload, workloads.NfRoundtrip):
        return [text for _, text in workload.ops]
    if isinstance(workload, workloads.DenseMixture):
        return [(x, closed) for _, x, closed in workload.ops]
    return ([(repr(mix.table), bits, xs)
             for mix, bits, xs, _ in workload.kernels], workload.ops)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    make = workloads.WORKLOADS[name]
    first = inputs(make(11))
    assert first == inputs(make(11))
    assert first != inputs(make(12))


def trace_counts(name, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {key: metric["value"] for key, metric in result["metrics"].items()
            if key.endswith(COUNT_SUFFIXES) and key != "trace.overhead_ratio"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_are_deterministic(name):
    counts = trace_counts(name, 5)
    assert counts == trace_counts(name, 5)
    assert any(counts.values())
