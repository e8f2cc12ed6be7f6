"""Segment-parallel generation differentials (§IV-D).

Segments are independent by construction — cross-boundary dependences
are dropped and every segment starts from a fresh zero stack — so the
parallel walk must be *invisible* in the results:

1. ``jobs=N`` (segments walked on threads) produces a byte-identical
   :class:`RpStacksModel` to ``jobs=1`` on every suite workload
   (order-merged segment results);
2. every segment view equals the flat edge list filtered to the edges
   whose two ends lie in its segment, so the per-segment walk sees
   exactly the graph segmentation leaves;
3. the compiled segment walk is bit-identical to the spec walk
   (``_walk_segment`` over ``reduce_stacks``): at the reduce level
   (fuzz over block-structured populations), end-to-end over every
   suite workload and stress kernel, and at the edge cases of segment
   length and policy, with ``REPRO_NATIVE`` flipped in-process.
"""

import numpy as np
import pytest

from repro.common.config import baseline_config
from repro.common.events import NUM_EVENTS, EventType
from repro.core.generator import RpStacksGenerator, generate_rpstacks
from repro.core.native import load_native
from repro.core.reduction import ReductionPolicy, reduce_stacks
from repro.graphmodel.builder import build_graph, pack_edges
from repro.graphmodel.graph import (
    MAX_EDGE_EVENTS,
    DependenceGraph,
    GraphBuildError,
)
from repro.graphmodel.nodes import NODES_PER_UOP, Stage, node_id
from repro.simulator.core import simulate
from repro.workloads import STRESS_KERNELS
from repro.workloads.suite import make_workload, suite_names

MACROS = 120
SEGMENT_LENGTH = 64


def _graph(name, macros=MACROS):
    workload = make_workload(name, macros)
    result = simulate(workload, baseline_config())
    return build_graph(result)


class TestSerialParallelParity:
    @pytest.mark.parametrize("name", suite_names())
    def test_models_byte_identical_across_jobs(self, name):
        graph = _graph(name)
        base = baseline_config().latency
        serial = generate_rpstacks(
            graph, base, segment_length=SEGMENT_LENGTH, jobs=1
        )
        parallel = generate_rpstacks(
            graph, base, segment_length=SEGMENT_LENGTH, jobs=2
        )
        assert serial.num_segments == parallel.num_segments
        for mine, theirs in zip(
            serial.segment_stacks, parallel.segment_stacks
        ):
            assert mine.shape == theirs.shape
            assert (mine == theirs).all()
        assert serial.content_digest() == parallel.content_digest()

    def test_content_digest_detects_differences(self):
        graph = _graph("gamess")
        base = baseline_config().latency
        a = generate_rpstacks(graph, base, segment_length=SEGMENT_LENGTH)
        b = generate_rpstacks(graph, base, segment_length=2 * SEGMENT_LENGTH)
        assert a.content_digest() != b.content_digest()


class TestArrayWalkMatchesReference:
    def test_include_base_threads_through_generation(self):
        graph = _graph("gamess")
        base = baseline_config().latency
        off = generate_rpstacks(
            graph, base, segment_length=SEGMENT_LENGTH,
            include_base_in_similarity=False,
        )
        on = generate_rpstacks(
            graph, base, segment_length=SEGMENT_LENGTH,
            include_base_in_similarity=True,
        )
        assert off.content_digest() != on.content_digest()


#: Graphs the slicing check runs over: two analogues and a stress kernel.
SLICE_GRAPHS = {
    "gamess": lambda: make_workload("gamess", MACROS),
    "mcf": lambda: make_workload("mcf", MACROS),
    "branch_mispredict_storm": lambda: STRESS_KERNELS[
        "branch_mispredict_storm"
    ](),
}


@pytest.fixture(scope="module")
def slice_graphs():
    return {
        name: build_graph(simulate(make(), baseline_config()))
        for name, make in SLICE_GRAPHS.items()
    }


class TestSegmentView:
    def test_covers_all_nodes_without_overlap(self):
        graph = _graph("gamess")
        count = graph.num_segments(SEGMENT_LENGTH)
        assert count > 1
        total = 0
        for seg in range(count):
            view = graph.segment_view(seg, SEGMENT_LENGTH)
            assert view.node_offset == total
            total += view.num_nodes
        assert total == graph.num_nodes

    def test_drops_only_cross_boundary_edges(self):
        graph = _graph("gamess")
        count = graph.num_segments(SEGMENT_LENGTH)
        kept = sum(
            graph.segment_view(seg, SEGMENT_LENGTH).edge_src.shape[0]
            for seg in range(count)
        )
        # Count intra-segment edges straight off the flat edge list.
        seg_of = lambda node: node // (
            SEGMENT_LENGTH * (graph.num_nodes // graph.num_uops)
        )
        intra = sum(
            1
            for s, d in zip(graph.edge_src, graph.edge_dst)
            if seg_of(int(s)) == seg_of(int(d))
        )
        assert kept == intra
        assert kept < graph.edge_src.shape[0]

    def test_local_edges_stay_in_range(self):
        graph = _graph("mcf")
        view = graph.segment_view(0, SEGMENT_LENGTH)
        assert (view.edge_src >= 0).all()
        assert (view.edge_src < view.num_nodes).all()
        assert view.in_indptr[-1] == view.edge_src.shape[0]

    def test_out_of_range_segment_rejected(self):
        graph = _graph("gamess")
        count = graph.num_segments(SEGMENT_LENGTH)
        with pytest.raises(IndexError):
            graph.segment_view(count, SEGMENT_LENGTH)
        with pytest.raises(IndexError):
            graph.segment_view(-1, SEGMENT_LENGTH)

    @pytest.mark.parametrize("segment_length", [1, 7, 64, None])
    @pytest.mark.parametrize("name", sorted(SLICE_GRAPHS))
    def test_views_equal_the_filtered_edge_list(
        self, slice_graphs, name, segment_length
    ):
        """Each view is the flat edge list filtered to edges whose two
        ends lie in the segment, in CSR (stable by-destination) order."""
        graph = slice_graphs[name]
        length = segment_length or graph.num_uops
        segment_of_src = graph.edge_src // (length * NODES_PER_UOP)
        segment_of_dst = graph.edge_dst // (length * NODES_PER_UOP)
        for seg in range(graph.num_segments(length)):
            view = graph.segment_view(seg, length)
            first_uop = seg * length
            num_uops = min(length, graph.num_uops - first_uop)
            offset = first_uop * NODES_PER_UOP
            num_nodes = num_uops * NODES_PER_UOP
            assert (
                view.first_uop, view.num_uops, view.node_offset,
                view.num_nodes,
            ) == (first_uop, num_uops, offset, num_nodes)

            kept = np.flatnonzero(
                (segment_of_src == seg) & (segment_of_dst == seg)
            )
            kept = kept[np.argsort(graph.edge_dst[kept], kind="stable")]
            in_degree = np.bincount(
                graph.edge_dst[kept] - offset, minlength=num_nodes
            )
            assert view.in_indptr[0] == 0
            assert np.array_equal(np.diff(view.in_indptr), in_degree)
            assert np.array_equal(view.edge_src, graph.edge_src[kept] - offset)
            assert np.array_equal(view.events, graph.events[kept])
            assert np.array_equal(view.units, graph.units[kept])


def _random_block_population(rng):
    """A concatenation of pre-reduced, constant-shifted blocks — the
    block invariant the C reducer relies on (see ``repro.core.native``)."""
    policy = ReductionPolicy(
        similarity_threshold=float(rng.choice([0.0, 0.3, 0.7, 0.9, 1.0])),
        max_paths=int(rng.integers(1, 9)),
        preserve_unique=bool(rng.integers(0, 2)),
        include_base_in_similarity=bool(rng.integers(0, 2)),
    )
    theta = rng.integers(0, 5, size=NUM_EVENTS).astype(np.float64)
    theta[EventType.BASE] = 1.0
    blocks = []
    for _ in range(int(rng.integers(2, 5))):
        raw = rng.integers(0, 4, size=(int(rng.integers(1, 6)), NUM_EVENTS))
        reduced = reduce_stacks(
            np.asarray(raw, dtype=np.float64), theta, policy
        )
        shift = rng.integers(0, 3, size=NUM_EVENTS).astype(np.float64)
        blocks.append(reduced + shift)
    sizes = np.asarray([b.shape[0] for b in blocks], dtype=np.int32)
    return np.ascontiguousarray(np.vstack(blocks)), sizes, theta, policy


def _tied_binary_population(rng):
    """Block populations of 0/1 rows over four stall dimensions.

    There the similarity |A∩B|/√(|A||B|) lands exactly on the
    thresholds 0.0, 0.5 and 1.0, so ties reach the merge, and with a
    64-row cap every dominance decision shows in the result.  Each
    block's rows share one weight (1-3 ones), so blocks stay wide
    antichains, and a BASE shift lets a row escape a superset in
    another block.
    """
    policy = ReductionPolicy(
        similarity_threshold=float(rng.choice([0.0, 0.5, 1.0])),
        max_paths=64,
        preserve_unique=bool(rng.integers(0, 2)),
    )
    theta = rng.integers(1, 5, size=NUM_EVENTS).astype(np.float64)
    stall = rng.choice(np.arange(EventType.BASE + 1, NUM_EVENTS), 4, False)
    blocks = []
    for _ in range(int(rng.integers(2, 5))):
        raw = np.zeros((int(rng.integers(1, 7)), NUM_EVENTS))
        weight = int(rng.integers(1, 4))
        for row in raw:
            row[rng.choice(stall, weight, False)] = 1.0
        shift = np.zeros(NUM_EVENTS)
        shift[EventType.BASE] = rng.integers(0, 3)
        blocks.append(reduce_stacks(raw, theta, policy) + shift)
    sizes = np.asarray([b.shape[0] for b in blocks], dtype=np.int32)
    return np.ascontiguousarray(np.vstack(blocks)), sizes, theta, policy


#: Support shapes on each merge threshold τ: (k, e) with k/(k + e) = τ.
THRESHOLD_SHAPES = {0.5: (2, 2), 0.7: (7, 3), 0.9: (9, 1)}


def _support_bound_population(rng):
    """Block populations whose pairwise support cosines straddle τ.

    Every row's stall support is one core of k dimensions, shared by
    the whole population, plus e - 1, e or e + 1 extras drawn from the
    other stall dimensions (``THRESHOLD_SHAPES``).  Two rows with p and
    q disjoint extras have support cosine |A∩B|/√(|A||B|) =
    k/√((k+p)(k+q)): exactly τ at p = q = e, just above or below it
    otherwise, and higher where extras overlap.  Most rows copy the
    population's core values, and then the modified cosine meets that
    bound, so merges are decided just below, on and just above τ:
    the pairs the compiled reducer's skip bound must never drop.
    Raw values are 0-9, blocks are reduced and BASE-shifted, and the
    cap of 64 rows lets every merge decision show in the result.
    """
    threshold = float(rng.choice(sorted(THRESHOLD_SHAPES)))
    core_size, extras = THRESHOLD_SHAPES[threshold]
    policy = ReductionPolicy(
        similarity_threshold=threshold,
        max_paths=64,
        preserve_unique=bool(rng.integers(0, 2)),
    )
    theta = rng.integers(1, 5, size=NUM_EVENTS).astype(np.float64)
    stall = rng.permutation(np.arange(EventType.BASE + 1, NUM_EVENTS))
    core, pool = stall[:core_size], stall[core_size:]
    core_values = rng.integers(1, 10, size=core_size)
    blocks = []
    for _ in range(int(rng.integers(2, 5))):
        raw = np.zeros((int(rng.integers(1, 8)), NUM_EVENTS))
        for row in raw:
            row[EventType.BASE] = rng.integers(0, 10)
            row[core] = (
                core_values
                if rng.random() < 0.75
                else rng.integers(1, 10, size=core_size)
            )
            count = extras + int(rng.integers(-1, 2))
            row[rng.choice(pool, count, False)] = rng.integers(1, 10, count)
        shift = np.zeros(NUM_EVENTS)
        shift[EventType.BASE] = rng.integers(0, 3)
        blocks.append(reduce_stacks(raw, theta, policy) + shift)
    sizes = np.asarray([b.shape[0] for b in blocks], dtype=np.int32)
    return np.ascontiguousarray(np.vstack(blocks)), sizes, theta, policy


def _assert_native_matches_spec(native, populations):
    out = np.empty(256, dtype=np.int32)
    for stacks, sizes, theta, policy in populations:
        expected = reduce_stacks(stacks, theta, policy)
        kept = native.reduce_node_indices(
            stacks, sizes, np.ascontiguousarray(theta), policy, out
        )
        got = stacks[out[:kept]]
        assert got.shape == expected.shape
        assert (got == expected).all()


def _carried_population(native, rng):
    """Blocks carrying the kernel's own merge-tested bits.

    Each block is a first-level kernel reduction of sparse raw rows,
    every raw row its own block, with the bits that reduction returned.
    The block is then shifted by a charge: BASE only, which keeps the
    bits unless BASE is a similarity dimension, or one that also adds to
    up to three stall dimensions, which clears them and makes the
    block's rows more alike, so pairs the first level kept apart may
    merge.  Thresholds include τ = 1.0 (no merges: every non-unique
    keeper carries the bit) and 0.0, and the cap sometimes binds.
    """
    policy = ReductionPolicy(
        similarity_threshold=float(rng.choice([0.0, 0.3, 0.5, 0.7, 0.9, 1.0])),
        max_paths=int(rng.choice([2, 5, 64])),
        preserve_unique=bool(rng.integers(0, 2)),
        include_base_in_similarity=bool(rng.integers(0, 4) == 0),
    )
    theta = np.ascontiguousarray(
        rng.integers(1, 5, size=NUM_EVENTS).astype(np.float64)
    )
    sim_lo = 0 if policy.include_base_in_similarity else EventType.BASE + 1
    stall = np.arange(EventType.BASE + 1, NUM_EVENTS)
    out = np.empty(16, dtype=np.int32)
    bits = np.empty(16, dtype=np.uint8)
    blocks, tested = [], []
    for _ in range(int(rng.integers(2, 5))):
        raw = np.zeros((int(rng.integers(1, 9)), NUM_EVENTS))
        raw[:, EventType.BASE] = rng.integers(0, 10, raw.shape[0])
        raw[:, stall] = rng.integers(1, 5, (raw.shape[0], stall.size)) * (
            rng.random((raw.shape[0], stall.size)) < 0.3
        )
        kept = native.reduce_node_indices(
            raw, np.ones(raw.shape[0], dtype=np.int32), theta, policy,
            out, out_tested=bits,
        )
        shift = np.zeros(NUM_EVENTS)
        shift[EventType.BASE] = rng.integers(0, 3)
        if rng.random() < 0.5:
            touched = rng.choice(stall, int(rng.integers(1, 4)), False)
            shift[touched] = rng.integers(1, 10, touched.size)
        blocks.append(raw[out[:kept]] + shift)
        tested.append(bits[:kept] * np.uint8(not shift[sim_lo:].any()))
    sizes = np.asarray([b.shape[0] for b in blocks], dtype=np.int32)
    return (
        np.ascontiguousarray(np.vstack(blocks)), sizes, theta, policy,
        np.concatenate(tested),
    )


def _assert_carried_bits_match_spec(native, rng, count):
    """The kernel with carried bits against the spec on *count*
    populations, a share of which must put two bits in one block."""
    out = np.empty(64, dtype=np.int32)
    paired = 0
    for _ in range(count):
        stacks, sizes, theta, policy, tested = _carried_population(native, rng)
        expected = reduce_stacks(stacks, theta, policy)
        kept = native.reduce_node_indices(
            stacks, sizes, theta, policy, out, tested=tested
        )
        got = stacks[out[:kept]]
        assert got.shape == expected.shape
        assert (got == expected).all()
        starts = np.cumsum(sizes) - sizes
        paired += (np.add.reduceat(tested, starts) >= 2).any()
    assert paired >= count // 4


#: Stress-kernel arguments keeping the end-to-end differential quick.
STRESS_ARGS = {"icache_thrash": {"passes": 1}, "dcache_thrash": {"passes": 1}}

END_TO_END_CASES = [
    ("suite", name, include_base)
    for name in suite_names()
    for include_base in (False, True)
] + [("stress", name, False) for name in sorted(STRESS_KERNELS)]


class TestNativeReducerParity:
    def test_native_matches_numpy_reduction(self):
        native = load_native()
        if native is None:
            pytest.skip("no C toolchain available in this environment")
        rng = np.random.default_rng(7)
        _assert_native_matches_spec(
            native, (_random_block_population(rng) for _ in range(150))
        )

    def test_native_matches_spec_on_tied_binary_rows(self):
        """Catches tie-break and dominance slips the integer fuzz above
        misses: a ``>`` -> ``>=`` flip in the similarity test, or a
        reversed support-subset skip in dominance."""
        native = load_native()
        if native is None:
            pytest.skip("no C toolchain available in this environment")
        rng = np.random.default_rng(11)
        _assert_native_matches_spec(
            native, (_tied_binary_population(rng) for _ in range(150))
        )

    def test_native_matches_spec_across_the_support_bound(self):
        """Catches a merge-pair skip bound that is not an upper bound on
        the modified cosine, such as a Jaccard |A∩B|/|A∪B| in place of
        the support cosine."""
        native = load_native()
        if native is None:
            pytest.skip("no C toolchain available in this environment")
        rng = np.random.default_rng(13)
        _assert_native_matches_spec(
            native, (_support_bound_population(rng) for _ in range(200))
        )

    def test_native_matches_spec_with_carried_merge_bits(self):
        """Catches a merge skip that fires on the wrong pairs: across
        blocks, with only one row's bit set, or on bits a shift touching
        a similarity dimension should have cleared."""
        native = load_native()
        if native is None:
            pytest.skip("no C toolchain available in this environment")
        _assert_carried_bits_match_spec(native, np.random.default_rng(17), 300)

    @pytest.mark.parametrize(
        "sizes",
        [[1], [2, 1], [-3, 9], [3, -1, 4], [7]],
        ids=["short", "short_pair", "negative", "negative_inside", "long"],
    )
    def test_block_sizes_must_sum_to_the_row_count(self, sizes):
        native = load_native()
        if native is None:
            pytest.skip("no C toolchain available in this environment")
        stacks = np.zeros((6, NUM_EVENTS))
        theta = np.ones(NUM_EVENTS)
        out = np.empty(6, dtype=np.int32)
        with pytest.raises(ValueError):
            native.reduce_node_indices(
                stacks, np.asarray(sizes, dtype=np.int32), theta,
                ReductionPolicy(), out,
            )

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.float64])
    def test_block_sizes_must_be_int32(self, dtype):
        native = load_native()
        if native is None:
            pytest.skip("no C toolchain available in this environment")
        stacks = np.zeros((6, NUM_EVENTS))
        out = np.empty(6, dtype=np.int32)
        with pytest.raises(ValueError, match="block sizes"):
            native.reduce_node_indices(
                stacks, np.asarray([3, 3], dtype=dtype), np.ones(NUM_EVENTS),
                ReductionPolicy(), out,
            )

    def test_empty_blocks_are_accepted(self):
        native = load_native()
        if native is None:
            pytest.skip("no C toolchain available in this environment")
        stacks = np.ascontiguousarray(np.eye(NUM_EVENTS)[:6] * 2.0)
        theta = np.ones(NUM_EVENTS)
        out = np.empty(6, dtype=np.int32)
        policy = ReductionPolicy(max_paths=64)
        kept = native.reduce_node_indices(
            stacks, np.asarray([0, 3, 0, 3, 0], dtype=np.int32), theta,
            policy, out,
        )
        expected = reduce_stacks(stacks, theta, policy)
        assert (stacks[out[:kept]] == expected).all()

    @pytest.mark.parametrize(
        "source,name,include_base", END_TO_END_CASES
    )
    def test_spec_reducer_is_byte_identical_end_to_end(
        self, monkeypatch, source, name, include_base
    ):
        if source == "suite":
            workload = make_workload(name, MACROS)
        else:
            workload = STRESS_KERNELS[name](**STRESS_ARGS.get(name, {}))
        graph = build_graph(simulate(workload, baseline_config()))
        base = baseline_config().latency

        def digest():
            return generate_rpstacks(
                graph,
                base,
                segment_length=SEGMENT_LENGTH,
                include_base_in_similarity=include_base,
            ).content_digest()

        monkeypatch.setenv("REPRO_NATIVE", "0")
        spec = digest()
        monkeypatch.setenv("REPRO_NATIVE", "auto")
        if load_native() is None:
            pytest.skip("no C toolchain available in this environment")
        assert digest() == spec


#: Policies at the edges of the reducer's decisions.
EDGE_POLICIES = [
    ReductionPolicy(max_paths=1),
    ReductionPolicy(similarity_threshold=0.0),
    ReductionPolicy(similarity_threshold=1.0, max_paths=64),
    ReductionPolicy(preserve_unique=False, include_base_in_similarity=True),
]

EDGE_GRAPHS = {
    "lbm": lambda: make_workload("lbm", 200),
    "leslie3d": lambda: make_workload("leslie3d", 200),
    "branch_mispredict_storm": lambda: STRESS_KERNELS[
        "branch_mispredict_storm"
    ](),
    "divider_pressure": lambda: STRESS_KERNELS["divider_pressure"](),
}


@pytest.fixture(scope="module")
def edge_graphs():
    return {
        name: build_graph(simulate(make(), baseline_config()))
        for name, make in EDGE_GRAPHS.items()
    }


class TestCompiledWalkMatchesSpecWalk:
    """The compiled walk (one C call per segment) against the spec walk
    (``_walk_segment`` over ``reduce_stacks``) at the edges: one-µop and
    odd-length segments, a single whole-trace segment, and policies that
    cap to one path, merge everything, merge nothing, or skip the
    uniqueness rule."""

    @staticmethod
    def _outcomes(graph, segment_length):
        base = baseline_config().latency
        outcomes = []
        for policy in EDGE_POLICIES:
            model = RpStacksGenerator(
                graph, base, policy=policy, segment_length=segment_length
            ).generate()
            outcomes.append(
                (
                    model.content_digest(),
                    model.stats.candidate_stacks,
                    model.stats.reductions,
                )
            )
        return outcomes

    @pytest.mark.parametrize("segment_length", [1, 7, None])
    @pytest.mark.parametrize("name", sorted(EDGE_GRAPHS))
    def test_digests_and_counts_match(
        self, monkeypatch, edge_graphs, name, segment_length
    ):
        graph = edge_graphs[name]
        length = segment_length or graph.num_uops
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        if load_native() is None:
            pytest.skip("no C toolchain available in this environment")
        compiled = self._outcomes(graph, length)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert self._outcomes(graph, length) == compiled

    @pytest.mark.parametrize("setting", [None, "0"])
    def test_cycle_raises_graph_build_error(self, monkeypatch, setting):
        if setting is None:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
        else:
            monkeypatch.setenv("REPRO_NATIVE", setting)
        a, b = node_id(0, Stage.F), node_id(0, Stage.E)
        graph = pack_edges(1, [a, b], [b, a], [(), ()])
        with pytest.raises(GraphBuildError, match="cycle"):
            generate_rpstacks(graph, baseline_config().latency)

    @pytest.mark.parametrize("setting", [None, "0"])
    def test_failing_walk_keeps_its_error_across_jobs(
        self, monkeypatch, setting
    ):
        """At ``jobs=2`` a cyclic segment raises its own
        ``GraphBuildError``, not a wrapper around it."""
        if setting is None:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
        else:
            monkeypatch.setenv("REPRO_NATIVE", setting)
        a, b = node_id(1, Stage.F), node_id(1, Stage.E)
        graph = pack_edges(2, [a, b], [b, a], [(), ()])
        with pytest.raises(GraphBuildError, match="cycle"):
            generate_rpstacks(
                graph, baseline_config().latency, segment_length=1, jobs=2
            )

    def test_constructors_reject_negative_units(self):
        a, b = node_id(0, Stage.F), node_id(0, Stage.E)
        with pytest.raises(GraphBuildError, match="negative"):
            pack_edges(1, [a], [b], [((EventType.L1D, -1),)])
        events = np.zeros((1, MAX_EDGE_EVENTS), dtype=np.int16)
        units = np.zeros((1, MAX_EDGE_EVENTS), dtype=np.int32)
        units[0, 0] = -1
        with pytest.raises(GraphBuildError, match="negative"):
            DependenceGraph(1, np.array([a]), np.array([b]), events, units)
