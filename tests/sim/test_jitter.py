"""Tests for bounded-asynchrony delivery (jitter)."""

from __future__ import annotations

import pytest

import repro
from repro.graphs import make_topology
from repro.sim import SynchronousEngine


class TestJitterBasics:
    def test_zero_jitter_is_the_synchronous_model(self):
        graph = make_topology("kout", 64, seed=2, k=3)
        plain = repro.discover(graph, algorithm="namedropper", seed=2)
        explicit = repro.discover(graph, algorithm="namedropper", seed=2, delivery="jitter:0")
        assert (plain.rounds, plain.messages, plain.pointers) == (
            explicit.rounds,
            explicit.messages,
            explicit.pointers,
        )

    def test_negative_jitter_rejected(self):
        from repro.algorithms.flooding import FloodingNode

        with pytest.raises(ValueError):
            SynchronousEngine({0: {1}, 1: set()}, FloodingNode, delivery="jitter:-1")

    def test_jitter_is_deterministic(self):
        graph = make_topology("kout", 48, seed=3, k=3)

        def signature():
            result = repro.discover(
                graph, algorithm="namedropper", seed=3, delivery="jitter:3"
            )
            return (result.rounds, result.messages)

        assert signature() == signature()


class TestJitterCompletion:
    @pytest.mark.parametrize("algorithm", ("flooding", "swamping", "namedropper"))
    @pytest.mark.parametrize("jitter", (1, 3))
    def test_gossip_completes_under_jitter(self, algorithm: str, jitter: int):
        graph = make_topology("kout", 48, seed=4, k=3)
        result = repro.discover(
            graph, algorithm=algorithm, seed=4, delivery=f"jitter:{jitter}", max_rounds=2000
        )
        assert result.completed

    @pytest.mark.parametrize("jitter", (1, 2, 4))
    def test_sublog_completes_under_jitter(self, jitter: int):
        graph = make_topology("kout", 48, seed=5, k=3)
        result = repro.discover(
            graph,
            algorithm="sublog",
            seed=5,
            delivery=f"jitter:{jitter}",
            resilient=True,
            stagnation_phases=4,
            max_rounds=4000,
        )
        assert result.completed

    def test_jitter_slows_but_does_not_break_flooding(self):
        graph = make_topology("bipath", 33)
        sync = repro.discover(graph, algorithm="flooding", seed=1)
        jittered = repro.discover(
            graph, algorithm="flooding", seed=1, delivery="jitter:2", max_rounds=2000
        )
        assert jittered.completed
        assert jittered.rounds >= sync.rounds

    def test_rounds_never_below_lower_bound_under_jitter(self):
        # Jitter only delays information; the 2^t ball bound still holds
        # (a fortiori), so completion cannot come earlier than ceil(log2 D).
        import math

        graph = make_topology("path", 65)
        result = repro.discover(
            graph, algorithm="swamping", seed=1, delivery="jitter:2", max_rounds=2000
        )
        assert result.completed
        assert result.rounds >= math.ceil(math.log2(64))
