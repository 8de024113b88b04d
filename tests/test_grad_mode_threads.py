"""Grad mode is per-thread: one thread's ``no_grad`` never reaches another.

``Experiment.run(workers=N)`` trains trials on pool threads while
``evaluate_model``, ``ShardableModel.accuracy``, ``forward_only`` and every
serving replica enter ``no_grad``.  With a process-wide switch a trial that
evaluates while a peer is mid-forward silently turns the peer's graph
recording off; these tests hold the switch to the calling thread.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.autograd import Tensor, is_grad_enabled, no_grad
from repro.data import DataLoader, make_classification
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.training import Trainer
from repro.training.metrics import evaluate_model

DATASET = make_classification(
    num_samples=64, num_features=8, num_classes=3, class_separation=2.0,
    rng=np.random.default_rng(0),
)
TRAINERS = 4
STEPS = 24


def test_no_grad_held_by_another_thread_does_not_switch_this_one_off():
    inside, leave = threading.Event(), threading.Event()
    seen = {}

    def holder():
        with no_grad():
            seen["holder"] = is_grad_enabled()
            inside.set()
            assert leave.wait(timeout=5.0)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert inside.wait(timeout=5.0)
        assert is_grad_enabled()
        w = Tensor(np.arange(3, dtype=np.float32), requires_grad=True)
        out = (w * 2.0).sum()
        assert out.requires_grad
        out.backward()
        assert np.array_equal(w.grad, np.full(3, 2.0, dtype=np.float32))
    finally:
        leave.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert seen["holder"] is False


def test_new_threads_start_with_recording_on_even_under_a_callers_no_grad():
    seen = {}
    with no_grad():
        thread = threading.Thread(target=lambda: seen.update(child=is_grad_enabled()))
        thread.start()
        thread.join(timeout=5.0)
        assert not is_grad_enabled()
    assert seen["child"] is True and is_grad_enabled()


def _trainer(seed: int) -> Trainer:
    config = FeedForwardConfig(input_dim=8, hidden_dims=(16,), num_classes=3)
    model = FeedForwardNetwork(config, seed=seed)
    loader = DataLoader(DATASET, batch_size=16, shuffle=True, seed=seed)
    return Trainer(model, Adam(model.parameters(), lr=1e-2), loader)


def _train(seed: int) -> np.ndarray:
    trainer = _trainer(seed)
    losses = []
    while len(losses) < STEPS:
        for batch in trainer.loader:
            losses.append(trainer.train_step(batch))
    return np.asarray(losses)


def test_training_threads_match_serial_while_another_thread_evaluates():
    serial = [_train(seed) for seed in range(TRAINERS)]

    stop = threading.Event()
    evaluations = []
    threaded = [None] * TRAINERS
    errors = []

    def evaluate_forever():
        trainer = _trainer(99)
        while not stop.is_set():
            evaluations.append(evaluate_model(trainer.model, trainer.loader)["loss"])

    def train(seed):
        try:
            threaded[seed] = _train(seed)
        except Exception as error:  # noqa: BLE001 - reported by the assert below
            errors.append(error)

    evaluator = threading.Thread(target=evaluate_forever)
    workers = [threading.Thread(target=train, args=(seed,)) for seed in range(TRAINERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave forwards and evaluations finely
    try:
        evaluator.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        stop.set()
        evaluator.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not evaluator.is_alive() and not any(w.is_alive() for w in workers)
    assert not errors, errors
    assert evaluations, "the evaluator never overlapped the training threads"
    for seed in range(TRAINERS):
        assert np.array_equal(threaded[seed], serial[seed]), f"trainer {seed} diverged"
