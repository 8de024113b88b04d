"""Property-based tests (hypothesis) for core data structures and invariants,
plus the exhaustive cross-pool determinism sweep for the concurrent runtime."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Budget, CerebroBackend, Experiment, ShardParallelBackend
from repro.autograd import Tensor, check_gradients, ops
from repro.cluster import Cluster, ClusterSimulator, Device, DeviceSpec, SimTask
from repro.data import DataLoader, make_classification
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.profiling import ModelProfile, linear_cost
from repro.selection import SearchSpace
from repro.sharding import ShardingPlan, partition_min_max, partition_uniform
from repro.telemetry import Telemetry
from repro.training import ShardedModelExecutor

# Keep hypothesis fast and deterministic for CI-style runs.
settings.register_profile("repro", max_examples=25, deadline=None, derandomize=True)
settings.load_profile("repro")


# --------------------------------------------------------------------------- #
# Autograd properties
# --------------------------------------------------------------------------- #
small_arrays = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).map(lambda cols: (rows, cols))
)


@st.composite
def float_matrix(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    values = draw(
        st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False, width=32),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(values, dtype=np.float64).reshape(rows, cols)


class TestAutogradProperties:
    @given(float_matrix(), float_matrix())
    def test_addition_is_commutative(self, a, b):
        if a.shape != b.shape:
            b = np.resize(b, a.shape)
        left = (Tensor(a) + Tensor(b)).data
        right = (Tensor(b) + Tensor(a)).data
        assert np.allclose(left, right)

    @given(float_matrix())
    def test_sum_gradient_is_all_ones(self, a):
        x = Tensor(a, requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, np.ones_like(a))

    @given(float_matrix())
    def test_mean_equals_sum_over_size(self, a):
        x = Tensor(a)
        assert np.allclose(x.mean().data, x.sum().data / a.size, atol=1e-6)

    @given(float_matrix())
    def test_softmax_rows_are_distributions(self, a):
        out = ops.softmax(Tensor(a), axis=-1).data
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-5)

    @given(float_matrix())
    def test_relu_output_nonnegative_and_idempotent(self, a):
        once = ops.relu(Tensor(a)).data
        twice = ops.relu(ops.relu(Tensor(a))).data
        assert np.all(once >= 0)
        assert np.allclose(once, twice)

    @given(float_matrix())
    def test_elementwise_product_gradient_matches_numerical(self, a):
        x = Tensor(a, requires_grad=True)
        check_gradients(lambda t: (t * t).sum(), [x], atol=1e-3, rtol=1e-2)

    @given(float_matrix(), st.integers(0, 1))
    def test_sum_then_total_equals_total_sum(self, a, axis):
        x = Tensor(a)
        axis = axis % a.ndim
        assert np.allclose(x.sum(axis=axis).sum().data, x.sum().data, atol=1e-5)


# --------------------------------------------------------------------------- #
# Partitioner properties
# --------------------------------------------------------------------------- #
@st.composite
def random_profile(draw):
    num_blocks = draw(st.integers(2, 12))
    widths = draw(
        st.lists(st.integers(4, 128), min_size=num_blocks, max_size=num_blocks)
    )
    blocks = [linear_cost(f"b{i}", w, w) for i, w in enumerate(widths)]
    return ModelProfile(model_name="prop", blocks=blocks)


class TestPartitionerProperties:
    @given(random_profile(), st.integers(1, 6))
    def test_boundaries_partition_the_block_range(self, profile, num_shards):
        num_shards = min(num_shards, len(profile))
        for partition in (partition_uniform(profile, num_shards),
                          partition_min_max(profile, num_shards)):
            assert partition[0][0] == 0
            assert partition[-1][1] == len(profile)
            assert len(partition) == num_shards
            for (s1, e1), (s2, e2) in zip(partition, partition[1:]):
                assert e1 == s2
                assert e1 > s1
            assert partition[-1][1] > partition[-1][0]

    @given(random_profile(), st.integers(1, 6))
    def test_plan_conserves_parameters_and_flops(self, profile, num_shards):
        num_shards = min(num_shards, len(profile))
        plan = ShardingPlan("m", profile, partition_min_max(profile, num_shards), batch_size=2)
        assert plan.total_param_count == profile.total_params
        total_fwd = sum(shard.forward_flops for shard in plan.shards)
        assert total_fwd == pytest.approx(profile.total_forward_flops(2))

    @given(random_profile(), st.integers(2, 5))
    def test_min_max_never_worse_than_uniform(self, profile, num_shards):
        num_shards = min(num_shards, len(profile))

        def bottleneck(boundaries):
            return max(profile.range_memory_bytes(s, e) for s, e in boundaries)

        assert bottleneck(partition_min_max(profile, num_shards)) <= bottleneck(
            partition_uniform(profile, num_shards)
        ) + 1e-9

    @given(random_profile())
    def test_memory_reduction_factor_at_least_one(self, profile):
        plan = ShardingPlan("m", profile, partition_min_max(profile, min(2, len(profile))))
        assert plan.memory_reduction_factor() >= 1.0


# --------------------------------------------------------------------------- #
# Simulator properties
# --------------------------------------------------------------------------- #
@st.composite
def random_task_graph(draw):
    num_devices = draw(st.integers(1, 3))
    num_tasks = draw(st.integers(1, 15))
    tasks = []
    for index in range(num_tasks):
        deps = []
        if index > 0:
            deps = draw(
                st.lists(st.integers(0, index - 1), max_size=2, unique=True)
            )
        tasks.append(
            SimTask(
                task_id=f"t{index}",
                device=f"gpu{draw(st.integers(0, num_devices - 1))}",
                compute_flops=float(draw(st.integers(1, 20))) * 1e8,
                deps=[f"t{d}" for d in deps],
            )
        )
    return num_devices, tasks


class TestSimulatorProperties:
    @given(random_task_graph())
    def test_all_tasks_run_dependencies_hold_devices_exclusive(self, graph):
        num_devices, tasks = graph
        spec = DeviceSpec("unit", memory_bytes=2 ** 40, flops_per_second=1e9)
        cluster = Cluster([Device(spec, f"gpu{i}") for i in range(num_devices)])
        trace = ClusterSimulator(cluster).run(tasks)

        records = {r.task_id: r for r in trace.records}
        assert len(records) == len(tasks)
        # Dependencies: a task starts only after its dependencies end.
        for task in tasks:
            for dep in task.deps:
                assert records[task.task_id].start >= records[dep].end - 1e-9
        # Device exclusivity: records on the same device never overlap.
        for name in cluster.device_names():
            device_records = sorted(
                (r for r in trace.records if r.device == name), key=lambda r: r.start
            )
            for first, second in zip(device_records, device_records[1:]):
                assert second.start >= first.end - 1e-9
        # Utilization is a valid fraction and busy time never exceeds makespan per device.
        assert 0.0 <= trace.utilization() <= 1.0 + 1e-9


# --------------------------------------------------------------------------- #
# Sharded-execution parity property
# --------------------------------------------------------------------------- #
@st.composite
def random_boundaries(draw, num_blocks=3):
    cuts = draw(st.lists(st.integers(1, num_blocks - 1), max_size=num_blocks - 1, unique=True))
    points = [0, *sorted(cuts), num_blocks]
    return list(zip(points[:-1], points[1:]))


class TestShardingParityProperty:
    @given(random_boundaries(num_blocks=3), st.integers(0, 3))
    def test_any_sharding_gives_identical_gradients(self, boundaries, seed):
        config = FeedForwardConfig.tiny()
        rng = np.random.default_rng(7)
        batch_features = rng.normal(size=(8, config.input_dim)).astype(np.float32)
        batch_labels = rng.integers(0, config.num_classes, size=8)
        batch = {"features": batch_features, "label": batch_labels}

        reference = FeedForwardNetwork(config, seed=seed)
        sharded = FeedForwardNetwork(config, seed=seed)

        loss = reference.loss_on_batch(batch)
        reference.zero_grad()
        loss.backward()

        executor = ShardedModelExecutor(sharded, boundaries)
        executor.begin_batch()
        sharded.zero_grad()
        for index in range(executor.num_shards):
            executor.run_forward(index, batch)
        executor.compute_loss(batch)
        for index in reversed(range(executor.num_shards)):
            executor.run_backward(index)

        for (name, p_ref), (_, p_sharded) in zip(
            reference.named_parameters(), sharded.named_parameters()
        ):
            assert np.allclose(p_ref.grad, p_sharded.grad, atol=1e-6), name


# --------------------------------------------------------------------------- #
# Cross-pool determinism sweep
# --------------------------------------------------------------------------- #
_SWEEP_DATA = make_classification(
    num_samples=64, num_features=8, num_classes=3, class_separation=2.0,
    rng=np.random.default_rng(0),
)

#: a fraction of what the cohort's shards need — forces real spill traffic
_TIGHT_BUDGET = 48 * 1024


def _sweep_builder(trial):
    """Module-level builder: must pickle into process-pool worker children."""
    width = int(trial.get("width", 16))
    config = FeedForwardConfig(input_dim=8, hidden_dims=(width,), num_classes=3)
    model = FeedForwardNetwork(config, seed=0)
    optimizer = Adam(model.parameters(), lr=float(trial.get("lr", 1e-2)))
    loader = DataLoader(_SWEEP_DATA, batch_size=16, shuffle=True, seed=0)
    return model, optimizer, loader


def _sweep_run(workers, pool, memory_budget):
    backend = ShardParallelBackend(
        builder=_sweep_builder, num_devices=2, memory_budget=memory_budget
    )
    experiment = Experiment(
        space=SearchSpace({"width": [16, 32], "lr": [1e-2, 1e-3]}),
        searcher="grid",
        objective="loss",
        budget=Budget(epochs_per_trial=2),
    )
    if workers is None:
        return experiment.run(backend=backend)
    return experiment.run(backend=backend, workers=workers, pool=pool)


def _cerebro_builder(trial):
    """Module-level (model, optimizer) builder: four blocks, one per shard."""
    width = int(trial.get("width", 16))
    config = FeedForwardConfig(input_dim=8, hidden_dims=(width,) * 3, num_classes=3)
    model = FeedForwardNetwork(config, seed=0)
    return model, Adam(model.parameters(), lr=float(trial.get("lr", 1e-2)))


#: holds the widest width-32 shard but not the two sharing its device, so a
#: trial spills even alone in a process child
_CEREBRO_TIGHT_BUDGET = 13 * 1024


def _cerebro_run(workers, pool, memory_budget, telemetry=None):
    backend = CerebroBackend(
        _SWEEP_DATA, builder=_cerebro_builder, num_workers=2, batch_size=16,
        num_shards=4,
    )
    experiment = Experiment(
        space=SearchSpace({"width": [16, 32], "lr": [1e-2, 1e-3]}),
        searcher="grid",
        objective="loss",
        budget=Budget(epochs_per_trial=2),
    )
    return experiment.run(
        backend=backend, workers=workers, pool=pool,
        memory_budget=memory_budget, telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def sweep_reference():
    """One serial, unconstrained run — the ranking every combo must match."""
    result = _sweep_run(None, None, None)
    ranking = [t.trial_id for t in result.ranked()]
    losses = {t.trial_id: t.metric("loss") for t in result.trials}
    return ranking, losses


@pytest.fixture(scope="module")
def cerebro_reference():
    """One serial, unconstrained run that trains all four trials as one cohort."""
    return [t.metric("loss") for t in _cerebro_run(None, None, None).trials]


class TestCrossPoolDeterminism:
    """The tentpole invariant, swept exhaustively.

    Rankings and losses must be **bit-identical** — not merely close —
    across every execution substrate: worker count {1, 2, 4} x pool kind
    {serial, thread, process} x memory budget {unconstrained, tight}.
    Thread pools share live state, process pools round-trip every trial
    through pickled backends and checkpoint snapshots, and tight budgets
    reroute every shard through the spill manager; none of it may perturb
    a single bit of any model's update sequence.
    """

    @pytest.mark.parametrize(
        "memory_budget", [None, _TIGHT_BUDGET], ids=["unbounded", "tight"]
    )
    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_rankings_and_losses_bit_identical(
        self, workers, pool, memory_budget, sweep_reference
    ):
        reference_ranking, reference_losses = sweep_reference
        result = _sweep_run(workers, pool, memory_budget)
        assert not result.failures
        assert [t.trial_id for t in result.ranked()] == reference_ranking
        # Float equality on purpose: the guarantee is bit-exactness.
        assert {
            t.trial_id: t.metric("loss") for t in result.trials
        } == reference_losses

    @pytest.mark.parametrize(
        "memory_budget", [None, _CEREBRO_TIGHT_BUDGET], ids=["unbounded", "tight"]
    )
    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cerebro_losses_independent_of_cohort(
        self, workers, pool, memory_budget, cerebro_reference
    ):
        """A Cerebro trial's losses do not depend on who shares its cohort:
        every pooled run trains each trial in a cohort of one."""
        telemetry = Telemetry()
        result = _cerebro_run(workers, pool, memory_budget, telemetry)
        assert not result.failures
        assert np.array_equal([t.metric("loss") for t in result.trials], cerebro_reference)
        if memory_budget is not None:
            evictions = [e for e in telemetry.events() if e["name"] == "spill.evict"]
            assert evictions, "budget was not tight enough to spill"
