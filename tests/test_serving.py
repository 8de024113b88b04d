"""The serving subsystem: exactness, faults, and the deploy path.

The contracts under test, in order of importance:

* **batched == unbatched** — responses coalesced into micro-batches are
  ``array_equal`` to single-request forwards at the same compute geometry;
* **spilled == resident** — a replica serving through a spill manager
  answers bit-identically to a fully resident one;
* **registry round-trip** — published parameters load back bit-exactly,
  versions are immutable and monotonically assigned;
* **faults are values** — a full queue rejects at admission, an expired
  request times out without running inference, a replica failure reaches
  the caller as a ``ServingError``; the server survives all three;
* **a response ends once** — every waiter sees the one outcome, and a
  second completion raises instead of replacing it.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.autograd import is_grad_enabled
from repro.data.dataloader import Batch
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    RequestTimeoutError,
    ServerOverloadedError,
    ServingError,
)
from repro.training.checkpoint import save_array_bundle, save_checkpoint
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.serving import (
    DynamicBatcher,
    InferenceRequest,
    ModelEntry,
    ModelRegistry,
    ModelServer,
    PendingResponse,
    Replica,
)

CONFIG = FeedForwardConfig(input_dim=16, hidden_dims=(24, 16), num_classes=4)
GEOMETRY = 8  # compute geometry shared by every exactness comparison


def make_model(seed: int = 5) -> FeedForwardNetwork:
    return FeedForwardNetwork(CONFIG, seed=seed)


def model_bytes(model) -> int:
    return sum(p.data.nbytes for p in model.parameters())


@pytest.fixture
def requests_48():
    rng = np.random.default_rng(11)
    return [rng.normal(size=(1, 16)).astype(np.float32) for _ in range(48)]


@pytest.fixture
def reference_outputs(requests_48):
    replica = Replica.resident(make_model())
    return [replica.infer({"features": x}, pad_to=GEOMETRY) for x in requests_48]


class _SleepyModel(FeedForwardNetwork):
    """A model whose forward takes a configurable wall-clock time."""

    def __init__(self, delay_seconds: float):
        super().__init__(CONFIG, seed=5)
        self.delay_seconds = delay_seconds

    def forward(self, batch: Batch):
        time.sleep(self.delay_seconds)
        return super().forward(batch)


# --------------------------------------------------------------------------- #
# Exactness
# --------------------------------------------------------------------------- #
class TestExactness:
    def test_batched_equals_unbatched_single_request_forwards(
        self, requests_48, reference_outputs
    ):
        server = ModelServer(
            [Replica.resident(make_model())],
            max_batch_size=GEOMETRY,
            max_wait_ms=5.0,
            max_queue=64,
        )
        with server:
            handles = [server.submit(x) for x in requests_48]
            responses = [handle.result(timeout=10.0) for handle in handles]
        metrics = server.metrics()
        # Batching actually happened (48 requests in far fewer forwards)...
        assert metrics["batches"] < len(requests_48)
        assert metrics["mean_batch_rows"] > 1.0
        # ...and every coalesced response is bit-identical to the unbatched
        # single-request forward at the same geometry.
        for response, expected in zip(responses, reference_outputs):
            assert np.array_equal(response, expected)

    def test_multi_row_requests_are_not_split_and_stay_exact(self, requests_48):
        whole = np.concatenate(requests_48[:6], axis=0)  # one 6-row request
        replica = Replica.resident(make_model())
        expected = replica.infer({"features": whole}, pad_to=GEOMETRY)
        server = ModelServer(
            [Replica.resident(make_model())], max_batch_size=GEOMETRY, max_wait_ms=1.0
        )
        with server:
            response = server.request({"features": whole})
        assert np.array_equal(response, expected)

    def test_spilled_replica_equals_resident(self, requests_48, reference_outputs):
        model = make_model()
        replica = Replica.spilled(
            model,
            memory_budget=int(model_bytes(model) * 0.6),
            scrub_evicted=True,  # any missed restore would poison the output
            name="spilled",
        )
        try:
            responses = [
                replica.infer({"features": x}, pad_to=GEOMETRY)
                for x in requests_48[:16]
            ]
        finally:
            evictions = replica.manager.stats.evictions
            replica.close()
        assert evictions > 0  # the budget actually forced spilling
        for response, expected in zip(responses, reference_outputs):
            assert np.array_equal(response, expected)

    def test_spilled_server_equals_resident_server(self, requests_48, reference_outputs):
        model = make_model()
        server = ModelServer(
            [
                Replica.spilled(
                    model,
                    memory_budget=int(model_bytes(model) * 0.6),
                    scrub_evicted=True,
                    name="spilled-served",
                )
            ],
            max_batch_size=GEOMETRY,
            max_wait_ms=2.0,
        )
        with server:
            handles = [server.submit(x) for x in requests_48[:24]]
            responses = [handle.result(timeout=10.0) for handle in handles]
        for response, expected in zip(responses, reference_outputs):
            assert np.array_equal(response, expected)
        # close() restored evicted shards: the model is NaN-free again.
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    def test_replica_pool_with_factory_stays_exact(self, requests_48, reference_outputs):
        from repro.api import serve

        server = serve(
            lambda: make_model(),
            replicas=2,
            max_batch_size=GEOMETRY,
            max_wait_ms=1.0,
        )
        try:
            handles = [server.submit(x) for x in requests_48]
            responses = [handle.result(timeout=10.0) for handle in handles]
        finally:
            server.stop()
        for response, expected in zip(responses, reference_outputs):
            assert np.array_equal(response, expected)

    def test_compute_geometry_is_independent_of_max_batch_size(
        self, requests_48, reference_outputs
    ):
        # An unbatched server (max_batch_size=1) at the shared geometry
        # answers bit-identically to the batched one — the property the
        # E13 benchmark's throughput comparison rests on.
        server = ModelServer(
            [Replica.resident(make_model())],
            max_batch_size=1,
            compute_batch_size=GEOMETRY,
            max_wait_ms=0.0,
        )
        with server:
            responses = [server.request(x) for x in requests_48[:12]]
        for response, expected in zip(responses, reference_outputs):
            assert np.array_equal(response, expected)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestModelRegistry:
    def test_publish_load_roundtrip_is_bit_exact(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = make_model(seed=3)
        published = registry.publish("mlp", model, metadata={"loss": 0.25, "note": "best"})
        assert published.version == 1

        fresh = make_model(seed=99)
        loaded = registry.load("mlp", fresh)
        assert loaded.version == 1
        assert loaded.metadata["loss"] == 0.25
        assert loaded.metadata["note"] == "best"
        for (name, expected), (_, actual) in zip(
            model.named_parameters(), fresh.named_parameters()
        ):
            assert np.array_equal(expected.data, actual.data), name

    def test_versions_are_monotonic_and_immutable(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.publish("mlp", make_model(seed=1)).version == 1
        assert registry.publish("mlp", make_model(seed=2)).version == 2
        assert registry.versions("mlp") == [1, 2]
        assert registry.latest_version("mlp") == 2
        with pytest.raises(CheckpointError):
            registry.publish("mlp", make_model(), version=2)

    def test_load_specific_version(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = make_model(seed=1)
        registry.publish("mlp", first)
        registry.publish("mlp", make_model(seed=2))
        target = make_model(seed=50)
        registry.load("mlp", target, version=1)
        for (_, expected), (_, actual) in zip(
            first.named_parameters(), target.named_parameters()
        ):
            assert np.array_equal(expected.data, actual.data)

    def test_metadata_without_loading(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("mlp", make_model(), metadata={"epochs_trained": 4})
        assert registry.metadata("mlp")["epochs_trained"] == 4

    def test_unknown_name_and_version_raise(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(CheckpointError):
            registry.latest_version("ghost")
        registry.publish("mlp", make_model())
        with pytest.raises(CheckpointError):
            registry.load("mlp", make_model(), version=7)

    def test_invalid_names_are_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for bad in ("", "a/b", "a b", "../up"):
            with pytest.raises(ConfigurationError):
                registry.publish(bad, make_model())

    def test_publish_from_archive_copies_the_model_sections(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        model = make_model(seed=3)
        snapshot = save_checkpoint(
            model, tmp_path / "snapshot.npz",
            metadata={"model_name": model.model_name, "loss": 9.0},
            optimizer=Adam(model.parameters()),
        )
        caller = {"loss": 0.25, "epochs_trained": 2}
        copied = registry.publish("copied", snapshot, metadata=caller)
        built = registry.publish("built", model, metadata=caller)
        # The caller's metadata overrides the archive's own.
        assert copied.metadata == built.metadata
        assert registry.metadata("copied") == registry.metadata("built")
        assert registry.metadata("copied")["loss"] == 0.25
        with zipfile.ZipFile(copied.archive) as archive:
            names = archive.namelist()
        assert names and not [n for n in names if n.startswith(("opt::", "sched::"))]
        # Same members, same layout: the copy is the archive publish(model) writes.
        assert copied.archive.stat().st_size == built.archive.stat().st_size
        fresh = make_model(seed=99)
        registry.load("copied", fresh)
        for (name, expected), (_, actual) in zip(
            model.named_parameters(), fresh.named_parameters()
        ):
            assert np.array_equal(expected.data, actual.data), name

    def test_publish_from_archive_without_parameters_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        empty = save_array_bundle(tmp_path / "empty.npz", {"meta::loss": np.asarray(1.0)})
        with pytest.raises(CheckpointError, match="no parameters"):
            registry.publish("mlp", empty, version=1)
        with pytest.raises(CheckpointError, match="does not exist"):
            registry.publish("mlp", tmp_path / "missing.npz")
        # Nothing was published, so the number is still free.
        assert registry.versions("mlp") == []
        assert registry.publish("mlp", make_model(), version=1).version == 1

    def test_names_skips_unrelated_directories(self, tmp_path):
        (tmp_path / "old runs").mkdir()  # stray entry, not a model name
        registry = ModelRegistry(tmp_path)
        registry.publish("mlp", make_model())
        assert registry.names() == ["mlp"]
        assert "mlp" in repr(registry)


class _MultiOutputModel(FeedForwardNetwork):
    """Returns a nested (logits, (probs, row_sum)) structure."""

    def forward(self, batch: Batch):
        logits = super().forward(batch)
        values = logits.data if hasattr(logits, "data") else logits
        exp = np.exp(values - values.max(axis=-1, keepdims=True))
        probs = exp / exp.sum(axis=-1, keepdims=True)
        return logits, (probs, values.sum(axis=-1))


class TestStructuredOutputs:
    def test_structured_outputs_keep_their_rows(self):
        replica = Replica.resident(_MultiOutputModel(CONFIG, seed=5))
        x = np.random.default_rng(4).normal(size=(2, 16)).astype(np.float32)
        logits, (probs, total) = replica.infer({"features": x}, pad_to=4)
        # The padding rows are sliced off every leaf of the nested output.
        assert logits.shape == (2, 4)
        assert probs.shape == (2, 4)
        assert total.shape == (2,)


# --------------------------------------------------------------------------- #
# The response handle
# --------------------------------------------------------------------------- #
class TestPendingResponse:
    def test_every_blocked_waiter_receives_the_value(self):
        response = PendingResponse()
        results = [None] * 4
        entered = threading.Barrier(5)

        def wait(slot):
            entered.wait()
            results[slot] = response.result(timeout=10.0)

        threads = [threading.Thread(target=wait, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        entered.wait()
        time.sleep(0.05)  # let the four block in result()
        value = np.arange(3.0)
        response.set_result(value)
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is value for result in results)

    def test_an_exception_is_raised_on_every_call(self):
        response = PendingResponse()
        error = ServingError("replica failed")
        response.set_exception(error)
        for _ in range(3):
            with pytest.raises(ServingError) as raised:
                response.result(timeout=0)
            assert raised.value is error

    @pytest.mark.parametrize("timeout", [0, 0.0, -0.5])
    def test_an_unset_response_times_out_without_waiting(self, timeout):
        response = PendingResponse()
        with pytest.raises(RequestTimeoutError):
            response.result(timeout=timeout)
        response.set_result(7)  # a timed-out wait leaves the response completable
        assert response.result(timeout=timeout) == 7

    def test_done_and_completion_time(self):
        response = PendingResponse()
        assert not response.done() and response.completed_at is None
        before = time.monotonic()
        response.set_result("rows")
        assert response.done()
        assert before <= response.completed_at <= time.monotonic()

    def test_instances_accept_new_attributes(self):
        response = PendingResponse()
        response.bench_service = (0.0, 0.0, 0.0)  # what bench's tracer stamps
        assert response.bench_service == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("first", ["result", "exception"])
    @pytest.mark.parametrize("second", ["result", "exception"])
    def test_a_second_completion_raises_and_keeps_the_first(self, first, second):
        response = PendingResponse()
        complete = {
            "result": lambda: response.set_result("first"),
            "exception": lambda: response.set_exception(ValueError("first")),
        }
        complete[first]()
        with pytest.raises(ServingError, match="completed twice"):
            if second == "result":
                response.set_result("second")
            else:
                response.set_exception(ValueError("second"))
        if first == "result":
            assert response.result(timeout=0) == "first"
        else:
            with pytest.raises(ValueError, match="first"):
                response.result(timeout=0)

    def test_a_response_is_one_small_object(self):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            responses = [PendingResponse() for _ in range(10_000)]
            per_response = (tracemalloc.get_traced_memory()[0] - before) / len(responses)
        finally:
            tracemalloc.stop()
        # An Event-completed response took 1 297 B (a Condition, its Lock
        # and waiter deque); the latch-completed one takes about 200.
        assert per_response <= 400, per_response


# --------------------------------------------------------------------------- #
# Batcher semantics
# --------------------------------------------------------------------------- #
class TestDynamicBatcher:
    """The one scheduler, driven through a single queue (a server's view)."""

    @staticmethod
    def _batcher(max_batch_size, max_wait_ms, max_queue):
        queue = ModelEntry(
            "q", max_batch_size=max_batch_size, max_queue=max_queue,
            max_wait=max_wait_ms / 1e3,
        )
        batcher = DynamicBatcher()
        batcher.add_entry(queue)
        return batcher, queue

    @staticmethod
    def _next(batcher):
        work = batcher.next_batch()
        return None if work is None else work.requests

    @staticmethod
    def _request(rows=1, deadline=None):
        return InferenceRequest(
            arrays={"features": np.zeros((rows, 4), np.float32)},
            rows=rows,
            submitted=time.monotonic(),
            deadline=deadline,
        )

    def test_coalesces_whole_requests_in_fifo_order(self):
        batcher, queue = self._batcher(max_batch_size=8, max_wait_ms=5.0, max_queue=16)
        submitted = [self._request(rows=3) for _ in range(3)]
        for request in submitted:
            batcher.submit(queue, request)
        batch = self._next(batcher)
        # 3+3 fits, the third 3-row request would overflow 8: not split.
        assert batch == submitted[:2]
        assert self._next(batcher) == submitted[2:]

    def test_flushes_partial_batch_after_max_wait(self):
        batcher, queue = self._batcher(max_batch_size=8, max_wait_ms=10.0, max_queue=16)
        lone = self._request()
        batcher.submit(queue, lone)
        started = time.monotonic()
        assert self._next(batcher) == [lone]
        assert time.monotonic() - started < 5.0  # waited ~10ms, not forever

    def test_queue_full_rejects(self):
        batcher, queue = self._batcher(max_batch_size=4, max_wait_ms=1.0, max_queue=2)
        batcher.submit(queue, self._request())
        batcher.submit(queue, self._request())
        with pytest.raises(ServerOverloadedError):
            batcher.submit(queue, self._request())

    def test_oversized_request_rejected_up_front(self):
        batcher, queue = self._batcher(max_batch_size=4, max_wait_ms=1.0, max_queue=4)
        with pytest.raises(ConfigurationError):
            batcher.submit(queue, self._request(rows=5))

    def test_expired_requests_fail_without_inference(self):
        batcher, queue = self._batcher(max_batch_size=4, max_wait_ms=1.0, max_queue=4)
        expired = self._request(deadline=time.monotonic() - 0.01)
        live = self._request()
        batcher.submit(queue, expired)
        batcher.submit(queue, live)
        assert self._next(batcher) == [live]
        with pytest.raises(RequestTimeoutError):
            expired.response.result(timeout=0.1)

    def test_fill_window_is_anchored_to_the_head_request(self):
        # A request that already waited (e.g. for a busy replica) longer
        # than max_wait_ms must be taken immediately, not re-delayed by a
        # fresh collection window.
        batcher, queue = self._batcher(max_batch_size=8, max_wait_ms=200.0, max_queue=4)
        stale = self._request()
        stale.submitted -= 1.0  # arrived one second ago
        batcher.submit(queue, stale)
        started = time.monotonic()
        assert self._next(batcher) == [stale]
        assert time.monotonic() - started < 0.1  # no second 200 ms wait

    def test_saturated_batch_dispatches_without_waiting(self):
        # A full batch cannot grow, so a huge fill window must not delay it.
        batcher, queue = self._batcher(max_batch_size=4, max_wait_ms=5000.0, max_queue=16)
        saturating = [self._request(rows=2), self._request(rows=2)]
        for request in saturating:
            batcher.submit(queue, request)
        started = time.monotonic()
        assert self._next(batcher) == saturating
        assert time.monotonic() - started < 1.0  # not the 5-second window

    def test_unfittable_next_request_saturates_the_batch(self):
        # 3 rows collected, the next 3-row request would overflow 4: waiting
        # longer cannot add it (requests are never split), so dispatch now.
        batcher, queue = self._batcher(max_batch_size=4, max_wait_ms=5000.0, max_queue=16)
        first = self._request(rows=3)
        blocked = self._request(rows=3)
        batcher.submit(queue, first)
        batcher.submit(queue, blocked)
        started = time.monotonic()
        assert self._next(batcher) == [first]
        assert time.monotonic() - started < 1.0
        # A closed queue dispatches immediately: the lone request left behind
        # would otherwise wait out the whole 5 s window.
        batcher.close()
        assert self._next(batcher) == [blocked]

    def test_unsaturated_batch_still_waits_the_window(self):
        # Saturation dispatch must not erode the fill window for batches
        # that could still grow: a lone 1-row request waits ~max_wait_ms.
        batcher, queue = self._batcher(max_batch_size=4, max_wait_ms=50.0, max_queue=16)
        lone = self._request(rows=1)
        batcher.submit(queue, lone)
        started = time.monotonic()
        assert self._next(batcher) == [lone]
        assert time.monotonic() - started >= 0.045

    def test_close_drains_then_signals_none(self):
        batcher, queue = self._batcher(max_batch_size=4, max_wait_ms=1.0, max_queue=4)
        queued = self._request()
        batcher.submit(queue, queued)
        batcher.close()
        with pytest.raises(ServingError):
            batcher.submit(queue, self._request())
        assert self._next(batcher) == [queued]
        assert self._next(batcher) is None


# --------------------------------------------------------------------------- #
# Server fault paths
# --------------------------------------------------------------------------- #
class TestServerFaults:
    def test_queue_full_rejection_and_metrics(self):
        server = ModelServer(
            [Replica.resident(_SleepyModel(0.2))],
            max_batch_size=1,
            max_wait_ms=0.0,
            max_queue=2,
        )
        with server:
            first = server.submit(np.zeros((1, 16), np.float32))
            time.sleep(0.05)  # let the replica pick it up and block in sleep
            server.submit(np.zeros((1, 16), np.float32))
            server.submit(np.zeros((1, 16), np.float32))
            with pytest.raises(ServerOverloadedError):
                server.submit(np.zeros((1, 16), np.float32))
            first.result(timeout=5.0)
        assert server.metrics()["rejected"] >= 1.0
        assert server.metrics()["completed"] == 3.0  # queued work drained on stop

    def test_per_request_timeout(self):
        server = ModelServer(
            [Replica.resident(_SleepyModel(0.2))],
            max_batch_size=1,
            max_wait_ms=0.0,
            max_queue=8,
            timeout_ms=50.0,
        )
        with server:
            blocker = server.submit(np.zeros((1, 16), np.float32), timeout_ms=5000.0)
            doomed = server.submit(np.zeros((1, 16), np.float32))
            with pytest.raises(RequestTimeoutError):
                doomed.result(timeout=5.0)
            blocker.result(timeout=5.0)
        assert server.metrics()["timed_out"] >= 1.0

    def test_mismatched_fields_in_one_batch_fail_the_batch_not_the_replica(self):
        server = ModelServer(
            [Replica.resident(make_model())], max_batch_size=4, max_wait_ms=20.0
        )
        with server:
            # Submitted back to back so the batcher coalesces them; their
            # field sets disagree, so the concat itself fails.
            first = server.submit({"features": np.zeros((1, 16), np.float32)})
            second = server.submit(
                {
                    "features": np.zeros((1, 16), np.float32),
                    "mask": np.zeros((1, 16), np.float32),
                }
            )
            with pytest.raises(ServingError):
                first.result(timeout=5.0)
            with pytest.raises(ServingError):
                second.result(timeout=5.0)
            # The replica loop survived: the server still answers, exactly.
            x = np.ones((1, 16), np.float32)
            expected = Replica.resident(make_model()).infer({"features": x}, pad_to=4)
            assert np.array_equal(server.request(x), expected)

    def test_replica_failure_reaches_caller_and_server_survives(self):
        model = make_model()
        server = ModelServer(
            [Replica.resident(model)], max_batch_size=2, max_wait_ms=0.0
        )
        with server:
            # A request whose fields the model cannot consume fails its batch.
            bad = server.submit({"not_features": np.zeros((1, 16), np.float32)})
            with pytest.raises(ServingError):
                bad.result(timeout=5.0)
            # The server is still alive and exact afterwards.
            x = np.ones((1, 16), np.float32)
            expected = Replica.resident(make_model()).infer({"features": x}, pad_to=2)
            assert np.array_equal(server.request(x), expected)
        assert server.metrics()["failed"] >= 1.0

    def test_submit_requires_running_server(self):
        server = ModelServer([Replica.resident(make_model())], max_batch_size=2)
        with pytest.raises(ServingError):
            server.submit(np.zeros((1, 16), np.float32))
        server.start()
        server.stop()
        with pytest.raises(ServingError):
            server.start()

    def test_inconsistent_request_rows_rejected(self):
        server = ModelServer([Replica.resident(make_model())], max_batch_size=4)
        with server:
            with pytest.raises(ConfigurationError):
                server.submit(
                    {
                        "features": np.zeros((2, 16), np.float32),
                        "label": np.zeros((3,), np.int64),
                    }
                )


class _GatedModel(FeedForwardNetwork):
    """A model whose forward announces itself, then waits to be released."""

    def __init__(self):
        super().__init__(CONFIG, seed=5)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.grad_seen_in_forward = None

    def forward(self, batch: Batch):
        self.grad_seen_in_forward = is_grad_enabled()
        self.entered.set()
        assert self.release.wait(timeout=5.0)
        return super().forward(batch)


class TestConcurrentForwards:
    def test_overlapping_forwards_leave_grad_recording_on(self):
        # Two forwards overlap and leave in the order they entered — the
        # interleaving that left a process-wide no_grad() stuck off and broke
        # any training that ran after serving.  Grad mode is per-thread: each
        # forward runs with recording off, and the thread that is not serving
        # never sees it switch.
        first, second = _GatedModel(), _GatedModel()
        x = {"features": np.zeros((1, 16), np.float32)}
        threads = [
            threading.Thread(target=Replica.resident(model).infer, args=(x,))
            for model in (first, second)
        ]
        threads[0].start()
        assert first.entered.wait(timeout=5.0)
        threads[1].start()
        assert second.entered.wait(timeout=5.0)
        assert is_grad_enabled()
        first.release.set()
        threads[0].join(timeout=5.0)
        assert is_grad_enabled()  # the second forward is still running
        second.release.set()
        threads[1].join(timeout=5.0)
        assert not threads[0].is_alive() and not threads[1].is_alive()
        assert is_grad_enabled()
        assert first.grad_seen_in_forward is False
        assert second.grad_seen_in_forward is False


# --------------------------------------------------------------------------- #
# serve() / deploy() wiring
# --------------------------------------------------------------------------- #
class TestServeAndDeploy:
    def test_serve_rejects_shared_model_for_spilled_pool(self):
        from repro.api import serve

        with pytest.raises(ConfigurationError):
            serve(make_model(), replicas=2, memory_budget=1 << 20)

    def test_deploy_serves_the_trained_winner(self, tmp_path):
        from repro.api import Budget, Experiment, ShardParallelBackend
        from repro.data import DataLoader, make_classification
        from repro.optim import Adam
        from repro.selection import SearchSpace

        def build(trial):
            model = FeedForwardNetwork(CONFIG, seed=trial.get("seed", 0))
            data = make_classification(
                num_samples=64, num_features=16, num_classes=4,
                rng=np.random.default_rng(1),
            )
            return (
                model,
                Adam(model.parameters(), lr=1e-3),
                DataLoader(data, batch_size=16),
            )

        registry = ModelRegistry(tmp_path)
        backend = ShardParallelBackend(builder=build, num_devices=2, registry=registry)
        experiment = Experiment(
            space=SearchSpace({"seed": [0, 1]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=1),
        )
        result = experiment.run(backend=backend)
        best = result.best()
        assert sorted(registry.names()) == sorted(t.trial_id for t in result.trials)
        assert registry.metadata(best.trial_id)["epochs_trained"] == 1

        x = np.random.default_rng(2).normal(size=(1, 16)).astype(np.float32)
        with result.deploy(
            build, registry=registry, max_batch_size=GEOMETRY, max_wait_ms=1.0
        ) as server:
            response = server.request(x)

        # The served weights are the registry's (trained), not the builder's
        # fresh initialisation.
        trained = FeedForwardNetwork(CONFIG, seed=int(best.hyperparameters["seed"]))
        registry.load(best.trial_id, trained)
        expected = Replica.resident(trained).infer({"features": x}, pad_to=GEOMETRY)
        assert np.array_equal(response, expected)

        fresh = FeedForwardNetwork(CONFIG, seed=int(best.hyperparameters["seed"]))
        unexpected = Replica.resident(fresh).infer({"features": x}, pad_to=GEOMETRY)
        assert not np.array_equal(response, unexpected)

    def test_failed_trials_publish_nothing(self, tmp_path):
        from repro.api.backends import ShardParallelBackend
        from repro.selection.experiment import TrialConfig

        def build(trial):
            from repro.data import DataLoader, make_classification
            from repro.optim import Adam

            model = make_model()
            data = make_classification(
                num_samples=32, num_features=16, num_classes=4,
                rng=np.random.default_rng(0),
            )
            return model, Adam(model.parameters(), lr=1e-3), DataLoader(data, batch_size=16)

        registry = ModelRegistry(tmp_path)
        backend = ShardParallelBackend(builder=build, num_devices=2, registry=registry)
        handle = backend.prepare(TrialConfig("doomed", {}))
        handle.failure = object()  # what the fault-tolerant runtime sets
        backend.teardown(handle)
        assert registry.names() == []  # torn weights must not be published

    def test_run_model_selection_registry_hook(self, tmp_path):
        from repro.data import DataLoader, make_classification
        from repro.hydra import run_model_selection
        from repro.optim import Adam

        def builder():
            model = make_model(seed=7)
            data = make_classification(
                num_samples=32, num_features=16, num_classes=4,
                rng=np.random.default_rng(4),
            )
            return model, Adam(model.parameters(), lr=1e-3), DataLoader(data, batch_size=16)

        registry = ModelRegistry(tmp_path)
        result = run_model_selection({"only": builder}, num_epochs=1, registry=registry)
        assert registry.names() == ["only"]
        with result.deploy(
            lambda trial: builder()[0], registry=registry, max_batch_size=4
        ) as server:
            out = server.request(np.zeros((1, 16), np.float32))
        assert out.shape == (1, 4)


# --------------------------------------------------------------------------- #
# Traffic from one thread, read back through metrics()
# --------------------------------------------------------------------------- #
class TestOneThreadTraffic:
    def test_rounds_in_flight_are_all_counted(self):
        inputs = np.random.default_rng(0).normal(size=(8, 16)).astype(np.float32)
        server = ModelServer(
            [Replica.resident(make_model())],
            max_batch_size=4,
            max_wait_ms=1.0,
            max_queue=32,
        )
        with server:
            for round_index in range(10):
                pending = [
                    server.submit(inputs[(round_index + i) % 8][None, :])
                    for i in range(4)
                ]
                for response in pending:
                    response.result(timeout=10.0)
        # Read after stop(): every completion is recorded by then.
        report = server.metrics()
        assert report["completed"] == 40
        assert report["rejected"] == report["timed_out"] == report["failed"] == 0
        assert report["throughput_rps"] > 0
        assert report["latency_p99_ms"] >= report["latency_p50_ms"] > 0

    def test_rejections_are_counted_once_each(self):
        server = ModelServer(
            [Replica.resident(_SleepyModel(0.05))],
            max_batch_size=1,
            max_wait_ms=0.0,
            max_queue=1,
        )
        accepted, rejected = [], 0
        with server:
            for _ in range(12):
                try:
                    accepted.append(server.submit(np.zeros((1, 16), np.float32)))
                except ServerOverloadedError:
                    rejected += 1
            for response in accepted:
                response.result(timeout=10.0)
        report = server.metrics()
        assert rejected > 0
        assert report["rejected"] == rejected
        assert report["completed"] == len(accepted) == 12 - rejected
