"""Rewrite walks: `rewrite_at` inside random hosts keeps the kernel.

For each of the 43 schemas, one side of an instance is plugged into a
random host at a random path (between adapters that fit the subterm it
replaces, as in the context net), rewritten there to the other side by
`rewrite_at`, and back again.  Every fourth schema also walks three
instances plugged at disjoint paths of one host, each rewritten there and
back in a seeded order.  Every term on a walk has the rational kernel and
the certificate of the start, and a walk there and back ends at the start.
A mutant's instance, plugged the same way, makes `rewrite_at` report that
the rewrite changed the semantics.
"""

import json
import random
import zlib

import pytest

from cgm.axioms import (CATALOG, instantiate, mutant_of, replace_at,
                        rewrite_at, sample_binding, subterm_at)
from cgm.dsl import print_term
from cgm.errors import InadmissibleBinding
from cgm.normalform import certificate_json, disintegrate
from cgm.randcircuit import TermSampler
from cgm.semantics import evaluate, mixture_to_json
from test_context_net import WRAPPED, _paths, adapters

MUTANT_INSTANCES = 4
SITES = 3              # instances plugged at once on every fourth schema


def _rng(name: str) -> random.Random:
    return random.Random(zlib.crc32(f"rewrite-walk:{name}".encode()))


def drawn(schema, rng: random.Random, count: int) -> list:
    """`count` admissible ``(binding, lhs, rhs)`` draws of the schema."""
    out = []
    for _ in range(8 * count):
        try:
            binding = sample_binding(schema, rng)
            out.append((binding, *instantiate(schema, binding)))
        except InadmissibleBinding:
            continue
        if len(out) == count:
            break
    return out


def disjoint_paths(host, rng: random.Random, count: int):
    """`count` paths of `host`, none above another, or None."""
    chosen = []
    for path in rng.sample(_paths(host), len(_paths(host))):
        if all(path[:len(p)] != p and p[:len(path)] != path for p in chosen):
            chosen.append(path)
    return chosen[:count] if len(chosen) >= count else None


def plugged(draws, rng: random.Random):
    """A random host with one side of each draw, between adapters, at
    disjoint paths; returns the term and, per draw, the path of the side,
    its binding and the direction that rewrites it to the other side."""
    sampler = TermSampler(rng, max_depth=2, max_word=2)
    paths = None
    while paths is None:
        host = sampler.closed_term(depth=3)
        paths = disjoint_paths(host, rng, len(draws))
    sites = []
    for path, (binding, lhs, rhs) in zip(paths, draws):
        forth = rng.random() < 0.5
        side = lhs if forth else rhs
        wrap = adapters(sampler, subterm_at(host, path), side)
        host = replace_at(host, path, wrap(side))
        sites.append((path + WRAPPED, binding, "L2R" if forth else "R2L"))
    return host, sites


def kernel_json(term) -> tuple:
    mix = evaluate(term, backend="rational")
    return (json.dumps(mixture_to_json(mix), sort_keys=True),
            json.dumps(certificate_json(disintegrate(mix)), sort_keys=True))


def walk(schema, term, sites, rng: random.Random):
    """Rewrite each site there and back in a seeded order, checking every
    term on the way."""
    want, start = kernel_json(term), term
    back = {"L2R": "R2L", "R2L": "L2R"}
    steps = rng.sample(sites, len(sites)) + [
        (path, binding, back[there])
        for path, binding, there in rng.sample(sites, len(sites))]
    for path, binding, direction in steps:
        term = rewrite_at(term, path, schema, direction, binding)
        assert kernel_json(term) == want, print_term(term)
    assert term == start


@pytest.mark.parametrize("name", list(CATALOG))
def test_walks_keep_the_kernel_and_certificate(name):
    schema, rng = CATALOG[name], _rng(name)
    for count in (1, SITES) if list(CATALOG).index(name) % 4 == 0 else (1,):
        draws = drawn(schema, rng, count)
        assert len(draws) == count
        walk(schema, *plugged(draws, rng), rng)


@pytest.mark.parametrize("name", list(CATALOG))
def test_mutant_steps_are_refused(name):
    mutant, rng = mutant_of(name), _rng(f"mutant:{name}")
    draws, refused = drawn(mutant, rng, MUTANT_INSTANCES), 0
    assert len(draws) == MUTANT_INSTANCES
    for draw in draws:
        term, [(path, binding, direction)] = plugged([draw], rng)
        try:
            rewrite_at(term, path, mutant, direction, binding)
        except AssertionError as err:
            assert "changed the semantics" in str(err)
            refused += 1
    assert refused >= 1, f"{mutant.name}: no step refused"
