"""Tests for the sampled routing-table builder used by large deployments.

Three layers of protection for :func:`sample_routing_tables`:

- an oracle: the historical per-peer implementation lives here as the
  reference, and the production builder must reproduce its tables bit
  for bit (same rng consumption, same ordering);
- structural invariants that hold for any correct sampler;
- a digest pin over one scale-out deployment, so a drift in rng
  consumption on any supported interpreter fails the suite.
"""

import bisect
import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pgrid.construction import (
    _sample_offsets,
    assign_paths,
    sample_routing_tables,
)
from repro.pgrid.scaleout import ScaleoutSpec, build_deployment
from repro.util.keys import Key, common_prefix_length
from strategies import QUICK_SETTINGS, SLOW_SETTINGS


def reference_sample_routing_tables(assignment, refs_per_level=2, rng=None):
    """The historical sampler: trie resolution repeated for every peer."""
    rng = rng if rng is not None else random.Random(0)
    members = {}
    for node_id, path in assignment.items():
        members.setdefault(path.bits, []).append(node_id)
    leaf_bits = sorted(members)
    counts = [len(members[bits]) for bits in leaf_bits]
    starts = [0] * (len(counts) + 1)
    for i, c in enumerate(counts):
        starts[i + 1] = starts[i] + c

    def _population(prefix_bits):
        lo = bisect.bisect_left(leaf_bits, prefix_bits)
        hi = bisect.bisect_right(leaf_bits, prefix_bits + "1" * 200)
        if lo < hi:
            return lo, starts[hi] - starts[lo]
        i = lo - 1
        while i >= 0:
            if prefix_bits.startswith(leaf_bits[i]):
                return i, counts[i]
            if not prefix_bits.startswith(leaf_bits[i][:len(prefix_bits)]):
                break
            i -= 1
        return lo, 0

    def _member_at(first_leaf, offset):
        leaf = bisect.bisect_right(starts, starts[first_leaf] + offset) - 1
        return members[leaf_bits[leaf]][starts[first_leaf] + offset - starts[leaf]]

    tables = {}
    for node_id, path in assignment.items():
        replicas = sorted(m for m in members[path.bits] if m != node_id)
        routing_table = []
        for level in range(len(path)):
            complement = path.sibling_prefix(level)
            first, total = _population(complement.bits)
            take = min(refs_per_level, total)
            if take == 0:
                routing_table.append([])
                continue
            offsets = rng.sample(range(total), take)
            routing_table.append(
                sorted(_member_at(first, off) for off in offsets))
        tables[node_id] = (replicas, routing_table)
    return tables


def _skewed_sample(seed, size=400, bits=16):
    """Keys bunched toward the low end of the key space, so the trie
    comes out unbalanced in depth (shallow leaves beside deep ones)."""
    rng = random.Random(seed)
    return [Key.from_int(int(rng.random() ** 4 * (1 << bits)), bits)
            for _ in range(size)]


def deployments(max_peers):
    return st.fixed_dictionaries({
        "num_peers": st.integers(1, max_peers),
        "replication": st.integers(1, 5),
        "refs_per_level": st.integers(1, 4),
        "seed": st.integers(0, 2**32 - 1),
        "skewed": st.booleans(),
    })


def _assignment(num_peers, replication, seed, skewed):
    return assign_paths(
        num_peers, replication=replication,
        key_sample=_skewed_sample(seed) if skewed else None,
        key_bits=16 if skewed else 128,
        rng=random.Random(seed))


class TestOracle:
    @SLOW_SETTINGS
    @given(deployments(3000))
    def test_tables_match_historical_sampler(self, spec):
        assignment = _assignment(spec["num_peers"], spec["replication"],
                                 spec["seed"], spec["skewed"])
        expected = reference_sample_routing_tables(
            assignment, spec["refs_per_level"], random.Random(spec["seed"]))
        actual = sample_routing_tables(
            assignment, spec["refs_per_level"], random.Random(spec["seed"]))
        assert actual == expected

    @SLOW_SETTINGS
    @given(st.lists(st.text("01", max_size=6), min_size=1, max_size=60),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_arbitrary_paths_match_historical_sampler(self, paths,
                                                      refs_per_level, seed):
        # Paths that do not partition the key space (nested leaves,
        # missing subtrees) reach the branches a trie from
        # assign_paths never does: empty populations and a shallower
        # leaf covering the complement prefix.
        assignment = {f"peer-{i}": Key(bits) for i, bits in enumerate(paths)}
        expected = reference_sample_routing_tables(
            assignment, refs_per_level, random.Random(seed))
        actual = sample_routing_tables(
            assignment, refs_per_level, random.Random(seed))
        assert actual == expected

    def test_negative_refs_per_level_rejected(self):
        assignment = assign_paths(4, rng=random.Random(0))
        with pytest.raises(ValueError):
            sample_routing_tables(assignment, -1)

    def test_rng_left_in_the_same_state(self):
        assignment = assign_paths(300, replication=3, rng=random.Random(5))
        ours, theirs = random.Random(9), random.Random(9)
        sample_routing_tables(assignment, 3, ours)
        reference_sample_routing_tables(assignment, 3, theirs)
        assert ours.getstate() == theirs.getstate()

    def test_draw_helper_matches_random_sample(self):
        # n <= 21 takes the pool path; larger n the set path, whose
        # threshold grows once k > 5.
        for seed in range(4):
            ours, theirs = random.Random(seed), random.Random(seed)
            for n in range(65):
                for k in range(min(n, 6) + 1):
                    expected = theirs.sample(range(n), k)
                    assert _sample_offsets(ours._randbelow, n, k) == expected
            assert ours.getstate() == theirs.getstate()


class TestStructure:
    @QUICK_SETTINGS
    @given(deployments(600))
    def test_invariants(self, spec):
        refs_per_level = spec["refs_per_level"]
        assignment = _assignment(spec["num_peers"], spec["replication"],
                                 spec["seed"], spec["skewed"])
        tables = sample_routing_tables(assignment, refs_per_level,
                                       random.Random(spec["seed"]))
        assert list(tables) == list(assignment)
        for node_id, (replicas, routing_table) in tables.items():
            path = assignment[node_id]
            assert replicas == sorted(
                other for other, other_path in assignment.items()
                if other_path == path and other != node_id)
            assert len(routing_table) == len(path)
            for level, refs in enumerate(routing_table):
                complement = path.sibling_prefix(level)
                covering = [
                    other for other, other_path in assignment.items()
                    if other_path.is_prefix_of(complement)
                    or complement.is_prefix_of(other_path)]
                assert refs == sorted(set(refs))
                assert len(refs) == min(refs_per_level, len(covering))
                assert set(refs) <= set(covering)

    @QUICK_SETTINGS
    @given(deployments(600),
           st.integers(0, 2**16 - 1))
    def test_greedy_forwarding_extends_common_prefix(self, spec, raw_key):
        assignment = _assignment(spec["num_peers"], spec["replication"],
                                 spec["seed"], spec["skewed"])
        tables = sample_routing_tables(assignment, spec["refs_per_level"],
                                       random.Random(spec["seed"]))
        key = Key.from_int(raw_key, 16)
        depth = max(len(path) for path in assignment.values())
        for start in list(assignment)[:20]:
            current, hops = start, 0
            while not assignment[current].is_prefix_of(key):
                level = common_prefix_length(assignment[current], key)
                refs = tables[current][1][level]
                assert refs, (current, level)
                nxt = refs[hops % len(refs)]
                assert (common_prefix_length(assignment[nxt], key) > level
                        or assignment[nxt].is_prefix_of(key))
                current, hops = nxt, hops + 1
            assert hops <= depth


def test_scaleout_deployment_tables_digest():
    """Pins the sampled tables of a 2000-peer scale-out deployment.

    A change in how the sampler consumes its rng (on any supported
    interpreter) changes every routed hop downstream; this digest makes
    such a drift fail here rather than surface as shifted benchmark
    counts.
    """
    tables = build_deployment(ScaleoutSpec(num_peers=2000, seed=0)).tables
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == (
        "1b47ada54a9ff2a445b0d6839de7179386b708f6f84f42d74219804bb4be1345")
