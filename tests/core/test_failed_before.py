"""Unit tests for repro.core.failed_before (Definition 3, sFS2b)."""

from repro.core.events import CrashEvent, FailedEvent, crash, failed
from repro.core.failed_before import (
    failed_before_graph,
    failed_before_pairs,
    find_cycle,
    is_acyclic,
    is_transitive,
    last_failed_candidates,
)
from repro.core.history import History


class TestRelation:
    def test_pairs_swap_detector_and_target(self):
        h = History([failed(1, 0)], n=2)
        # failed_1(0): 0 failed before 1.
        assert failed_before_pairs(h) == [(0, 1)]

    def test_pairs_in_detection_order(self):
        h = History([failed(2, 0), failed(0, 1)], n=3)
        assert failed_before_pairs(h) == [(0, 2), (1, 0)]

    def test_graph_has_all_nodes(self):
        h = History([], n=4)
        assert set(failed_before_graph(h).nodes) == {0, 1, 2, 3}

    def test_empty_relation_acyclic(self):
        assert is_acyclic(History([], n=3))


class TestCycles:
    def test_two_cycle(self):
        h = History([failed(0, 1), failed(1, 0)], n=2)
        assert not is_acyclic(h)
        cycle = find_cycle(h)
        assert cycle is not None and len(cycle) == 2

    def test_three_cycle(self):
        h = History([failed(0, 1), failed(1, 2), failed(2, 0)], n=3)
        cycle = find_cycle(h)
        assert cycle is not None and len(cycle) == 3

    def test_chain_is_acyclic(self):
        h = History([failed(1, 0), failed(2, 1)], n=3)
        assert is_acyclic(h)
        assert find_cycle(h) is None

    def test_diamond_is_acyclic(self):
        h = History(
            [failed(1, 0), failed(2, 0), failed(3, 1), failed(3, 2)], n=4
        )
        assert is_acyclic(h)


class TestTransitivity:
    def test_transitive_chain(self):
        # 0 fb 1, 1 fb 2, and 0 fb 2 recorded: transitive.
        h = History([failed(1, 0), failed(2, 1), failed(2, 0)], n=3)
        assert is_transitive(h)

    def test_intransitive_chain(self):
        # 0 fb 1, 1 fb 2 but no 0 fb 2: sFS does not guarantee this edge.
        h = History([failed(1, 0), failed(2, 1)], n=3)
        assert not is_transitive(h)

    def test_empty_is_transitive(self):
        assert is_transitive(History([], n=2))


class TestLastFailedCandidates:
    def test_total_failure_chain(self):
        # 0 detected by 1, 1 detected by 2; all crash. 2 is maximal.
        h = History(
            [failed(1, 0), crash(0), failed(2, 1), crash(1), crash(2)], n=3
        )
        assert last_failed_candidates(h) == frozenset({2})

    def test_unrelated_crashes_all_candidates(self):
        h = History([crash(0), crash(1)], n=2)
        assert last_failed_candidates(h) == frozenset({0, 1})

    def test_non_crashed_not_candidates(self):
        h = History([failed(1, 0), crash(0)], n=2)
        assert last_failed_candidates(h) == frozenset()


class TestFailedBeforeTracker:
    """The incremental relation the streaming monitors ride."""

    def _tracker(self):
        from repro.core.failed_before import FailedBeforeTracker

        return FailedBeforeTracker()

    def test_stays_acyclic_on_chains(self):
        tracker = self._tracker()
        tracker.add(0, 1)
        tracker.add(1, 2)
        assert tracker.acyclic and tracker.cycle is None

    def test_locks_first_cycle(self):
        tracker = self._tracker()
        tracker.add(0, 1)
        tracker.add(1, 0)
        first = tracker.cycle
        assert first is not None and len(first) == 2
        # Later edges — even ones closing other cycles — never move it.
        tracker.add(2, 3)
        tracker.add(3, 2)
        assert tracker.cycle == first
        assert not tracker.acyclic

    def test_duplicate_edges_ignored(self):
        tracker = self._tracker()
        tracker.add(0, 1)
        tracker.add(0, 1)
        assert tracker.acyclic

    def test_self_loop_is_a_cycle(self):
        tracker = self._tracker()
        tracker.add(2, 2)
        assert tracker.cycle == [(2, 2)]

    def test_matches_networkx_acyclicity_on_random_relations(self):
        import random

        import networkx as nx

        for seed in range(40):
            rng = random.Random(seed)
            tracker = self._tracker()
            graph = nx.DiGraph()
            n = rng.randrange(2, 7)
            graph.add_nodes_from(range(n))
            for _ in range(rng.randrange(1, 12)):
                i, j = rng.randrange(n), rng.randrange(n)
                tracker.add(i, j)
                graph.add_edge(i, j)
                assert tracker.acyclic == nx.is_directed_acyclic_graph(
                    graph
                ), f"disagreement at seed {seed}"
                if not tracker.acyclic:
                    # The locked cycle really is a cycle in the relation.
                    cycle = tracker.cycle
                    assert all(graph.has_edge(a, b) for a, b in cycle)
                    assert all(
                        cycle[k][1] == cycle[(k + 1) % len(cycle)][0]
                        for k in range(len(cycle))
                    )

    def test_predicates_match_networkx_on_random_histories(self):
        # The package answers from plain sets and one DFS; networkx,
        # fed straight from the events, is the independent oracle.
        import random

        import networkx as nx

        seen = {"acyclic": set(), "transitive": set(), "candidates": set()}
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randrange(1, 7)
            events = [crash(p) for p in range(n) if rng.random() < 0.4]
            for _ in range(rng.randrange(0, 12)):
                detector = rng.randrange(n)
                # Self-pairs (failed_i(i)) well above their 1/n share.
                target = detector if rng.random() < 0.15 else rng.randrange(n)
                events.append(failed(detector, target))
            rng.shuffle(events)
            h = History(events, n=n)
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(
                (e.target, e.proc)
                for e in events
                if isinstance(e, FailedEvent)
            )

            acyclic = nx.is_directed_acyclic_graph(graph)
            transitive = all(
                graph.has_edge(a, c)
                for a, b in graph.edges
                for c in graph.successors(b)
            )
            candidates = frozenset(
                e.proc
                for e in events
                if isinstance(e, CrashEvent) and graph.out_degree(e.proc) == 0
            )
            where = f"seed {seed}: {h}"
            assert is_acyclic(h) == acyclic, where
            assert (find_cycle(h) is None) == acyclic, where
            assert is_transitive(h) == transitive, where
            assert last_failed_candidates(h) == candidates, where
            assert set(failed_before_graph(h).edges) == set(graph.edges)
            seen["acyclic"].add(acyclic)
            seen["transitive"].add(transitive)
            seen["candidates"].add(bool(candidates))
        # Both verdicts of every predicate were exercised.
        assert all(values == {True, False} for values in seen.values())

    def test_find_cycle_is_tracker_fold(self):
        from repro.core.failed_before import find_cycle
        from repro.core.events import failed
        from repro.core.history import History

        h = History([failed(0, 1), failed(1, 2), failed(2, 0)], n=3)
        cycle = find_cycle(h)
        assert cycle is not None
        assert {edge for edge in cycle} == {(1, 0), (0, 2), (2, 1)}
