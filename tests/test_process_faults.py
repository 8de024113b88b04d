"""Fault injection across the process boundary: SIGKILL, retries, recovery.

The process runtime's whole value proposition is that a dead child is a
*contained* fault, never a wedged experiment or a corrupted artifact.  The
contracts under test:

* a pool child SIGKILLed mid-task fails **only that task**, with the typed
  :class:`~repro.exceptions.WorkerCrashedError`; the slot respawns and the
  pool keeps serving;
* parent-side retry (:meth:`ProcessWorkerPool.submit_retrying`) survives
  the death of the child that ran the previous attempt — the retried
  attempt lands on a fresh child;
* through the Experiment API, a killed trial either recovers (with a
  :class:`RetryPolicy`) or surfaces as a single ``FailedTrial`` while the
  rest of the cohort completes — the run never hangs;
* registry publishes stay atomic under kills: after a fault-injected run
  every published archive loads cleanly and no staging litter remains.

Every kill helper is a module-level class instance (pickles into child
processes) and self-terminates via ``os.kill(os.getpid(), SIGKILL)`` gated
on a marker file, so the injection is deterministic, not timing-based.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import (
    Budget,
    Experiment,
    FunctionBackend,
    ProcessWorkerPool,
    RetryPolicy,
    ShardParallelBackend,
)
from repro.data import DataLoader, make_classification
from repro.exceptions import ReproError, WorkerCrashedError
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.runtime import pool as pool_module
from repro.runtime.child import _reply
from repro.selection import SearchSpace
from repro.serving import ModelRegistry

DATASET = make_classification(
    num_samples=64, num_features=8, num_classes=3, class_separation=2.0,
    rng=np.random.default_rng(0),
)


def _sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class _DieOnce:
    """Task that SIGKILLs its own worker the first time it runs."""

    def __init__(self, marker: Path):
        self.marker = str(marker)

    def __call__(self) -> str:
        marker = Path(self.marker)
        if not marker.exists():
            marker.touch()
            _sigkill_self()
        return "survived"


class _KillFirstAttempt:
    """Trial function that SIGKILLs its worker on one trial's first attempt."""

    def __init__(self, marker_dir: Path, victim: str):
        self.marker_dir = str(marker_dir)
        self.victim = victim

    def __call__(self, trial, epochs):
        if trial.trial_id == self.victim:
            marker = Path(self.marker_dir) / f"{trial.trial_id}.attempted"
            if not marker.exists():
                marker.touch()
                _sigkill_self()
        return {"loss": float(trial.get("x", 0))}


class _KillingBuilder:
    """Trial builder that SIGKILLs the worker building one trial, once.

    The marker file gates the kill, so the retried child builds normally.
    """

    def __init__(self, marker_dir: Path, victim: str):
        self.marker_dir = str(marker_dir)
        self.victim = victim

    def __call__(self, trial):
        if trial.trial_id == self.victim:
            marker = Path(self.marker_dir) / f"{trial.trial_id}.attempted"
            if not marker.exists():
                marker.touch()
                _sigkill_self()
        width = int(trial.get("width", 16))
        config = FeedForwardConfig(input_dim=8, hidden_dims=(width,), num_classes=3)
        model = FeedForwardNetwork(config, seed=0)
        optimizer = Adam(model.parameters(), lr=float(trial.get("lr", 1e-2)))
        loader = DataLoader(DATASET, batch_size=16, shuffle=True, seed=0)
        return model, optimizer, loader


# --------------------------------------------------------------------- #
# Pool-level containment
# --------------------------------------------------------------------- #
class TestProcessPoolFaults:
    def test_killed_child_fails_only_its_task(self):
        with ProcessWorkerPool(2) as pool:
            doomed = pool.submit(_sigkill_self)
            healthy = [pool.submit(abs, -value) for value in range(1, 4)]
            with pytest.raises(WorkerCrashedError):
                doomed.result(timeout=60)
            assert [future.result(timeout=60) for future in healthy] == [1, 2, 3]
            # The slot respawned: the pool still accepts and runs work.
            assert pool.submit(abs, -7).result(timeout=60) == 7

    def test_retry_survives_child_death(self, tmp_path):
        task = _DieOnce(tmp_path / "attempted")
        with ProcessWorkerPool(2) as pool:
            future = pool.submit_retrying(
                RetryPolicy(max_retries=1, backoff_seconds=0.0), task
            )
            assert future.result(timeout=60) == "survived"
        assert (tmp_path / "attempted").exists()

    def test_exhausted_retries_raise_the_crash(self):
        with ProcessWorkerPool(2) as pool:
            future = pool.submit_retrying(
                RetryPolicy(max_retries=1, backoff_seconds=0.0), _sigkill_self
            )
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=60)


# --------------------------------------------------------------------- #
# Experiment-level containment
# --------------------------------------------------------------------- #
class TestProcessTrialFaults:
    def _experiment(self):
        return Experiment(
            space=SearchSpace({"x": [0, 1, 2]}), searcher="grid", objective="loss",
        )

    def test_killed_trial_recovers_under_retry(self, tmp_path):
        result = self._experiment().run(
            backend=FunctionBackend(_KillFirstAttempt(tmp_path, victim="grid-1")),
            workers=2,
            pool="process",
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        )
        assert not result.failures
        assert {t.trial_id: t.metric("loss") for t in result.trials} == {
            "grid-0": 0.0, "grid-1": 1.0, "grid-2": 2.0,
        }
        assert (tmp_path / "grid-1.attempted").exists()  # the kill really fired

    def test_killed_trial_without_retry_is_one_fault_not_a_hang(self, tmp_path):
        started = time.monotonic()
        result = self._experiment().run(
            backend=FunctionBackend(_KillFirstAttempt(tmp_path, victim="grid-1")),
            workers=2,
            pool="process",
            retry=RetryPolicy(max_retries=0),
        )
        assert time.monotonic() - started < 60  # bounded, not wedged
        assert [t.trial_id for t in result.failures] == ["grid-1"]
        assert "worker process" in result.failures[0].error  # the typed crash
        assert [t.trial_id for t in result.ranked()] == ["grid-0", "grid-2"]

    def test_registry_stays_atomic_under_kills(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        builder = _KillingBuilder(tmp_path, victim="grid-2")
        experiment = Experiment(
            space=SearchSpace({"width": [16, 32], "lr": [1e-2, 1e-3]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=2),
        )
        result = experiment.run(
            backend=ShardParallelBackend(
                builder=builder, num_devices=2, registry=registry
            ),
            workers=2,
            pool="process",
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        )
        assert not result.failures
        # Every trial published exactly once, and every archive is whole.
        assert sorted(registry.names()) == sorted(t.trial_id for t in result.trials)
        for name in registry.names():
            with np.load(registry.archive_path(name)) as archive:
                assert len(archive.files) > 0
        # Atomic staged writes leave no litter behind, killed children or not.
        assert not list(Path(registry.root).rglob("*staging*"))


# --------------------------------------------------------------------- #
# The supervised child: one fault matrix over the pool slot that owns it
# --------------------------------------------------------------------- #
_START_MARKER_ENV = "REPRO_TEST_START_MARKER"


def _fail_first_start():
    """Stand-in pool ``setup``: raises in the first child, then the real one."""
    marker = Path(os.environ[_START_MARKER_ENV])
    if not marker.exists():
        marker.touch()
        raise RuntimeError("boom at start")
    return pool_module._pool_worker_main()


_ADDED_ENV = "REPRO_TEST_ADDED_AFTER_START"


def _seen_context() -> dict:
    """What a process sees of its start context, one entry per aspect."""
    return {
        "env-set": os.environ.get(_ADDED_ENV),
        "env-deleted": "PATH" in os.environ,
        "chdir": os.getcwd(),
        "sys-path": sys.path[0],
    }


def _wait_dead(pid: int) -> None:
    deadline = time.monotonic() + 30
    while any(
        child.pid == pid and child.is_alive()
        for child in multiprocessing.active_children()
    ):
        assert time.monotonic() < deadline, f"child {pid} survived SIGKILL"
        time.sleep(0.01)


class _PoolOwner:
    """A process pool slot, the owner of each supervised child."""

    crash = WorkerCrashedError

    def __init__(self, fault, tmp_path, monkeypatch):
        if fault == "start-raises":
            monkeypatch.setenv(_START_MARKER_ENV, str(tmp_path / "started"))
            monkeypatch.setattr(pool_module, "_pool_worker_main", _fail_first_start)
        self.pool = ProcessWorkerPool(2)

    def item(self) -> int:
        """Run one healthy item; return the pid of the child that served it."""
        return self.pool.submit(os.getpid).result(timeout=60)

    def seen_context(self) -> dict:
        return self.pool.submit(_seen_context).result(timeout=60)

    def faulty_item(self, fault):
        if fault == "kill-mid-request":
            return self.pool.submit(_sigkill_self).result(timeout=60)
        if fault == "unpicklable-reply":
            return self.pool.submit(threading.Lock).result(timeout=60)
        return self.item()

    @property
    def restarts(self) -> int:
        return self.pool.restarts

    def close(self) -> None:
        self.pool.shutdown()


class TestSupervisedChildFaultMatrix:
    """A pool slot × {kill mid-request, kill idle, start raises, unpicklable
    reply}: only the item in flight fails — with the typed crash error
    naming the phase — the next item succeeds on a fresh child,
    ``restarts`` moves by exactly one, and closing afterwards does not hang.
    (A reply that cannot pickle is the child's answer, not its death: that
    item fails with a portable error and the *same* child serves the next.)
    The conftest leak guard checks no child outlives each case.
    """

    @pytest.mark.parametrize(
        "fault",
        ["kill-mid-request", "kill-idle", "start-raises", "unpicklable-reply"],
    )
    @pytest.mark.parametrize("owner_type", [_PoolOwner])
    def test_fault_is_contained(self, owner_type, fault, tmp_path, monkeypatch):
        owner = owner_type(fault, tmp_path, monkeypatch)
        try:
            first_pid = None if fault == "start-raises" else owner.item()
            assert owner.restarts == 0
            if fault == "kill-idle":
                # Nothing is in flight, so nothing fails: the death is found
                # (and the corpse reaped) when the next item arrives.
                os.kill(first_pid, signal.SIGKILL)
                _wait_dead(first_pid)
            else:
                error, text = {
                    "kill-mid-request": (owner.crash, "request in flight"),
                    "start-raises": (owner.crash, "start-up: RuntimeError: boom"),
                    "unpicklable-reply": (ReproError, "process boundary"),
                }[fault]
                with pytest.raises(error, match=text):
                    owner.faulty_item(fault)
            next_pid = owner.item()
            assert next_pid is not None
            if fault == "unpicklable-reply":
                assert next_pid == first_pid and owner.restarts == 0
            else:
                assert next_pid != first_pid and owner.restarts == 1
        finally:
            started = time.monotonic()
            owner.close()
            assert time.monotonic() - started < 30


class TestSupervisedChildStart:
    """Children start warm, from one preloaded server, yet see the parent
    as it is *now*: a context change made after the server booted reaches
    every child started afterwards."""

    @pytest.mark.parametrize("aspect", ["env-set", "env-deleted", "chdir", "sys-path"])
    @pytest.mark.parametrize("owner_type", [_PoolOwner])
    def test_child_sees_the_parent_context_at_start(
        self, owner_type, aspect, tmp_path, monkeypatch
    ):
        with ProcessWorkerPool(1) as pool:  # boot the server before the change
            pool.submit(os.getpid).result(timeout=60)
        if aspect == "env-set":
            monkeypatch.setenv(_ADDED_ENV, "set-after-start")
        elif aspect == "env-deleted":
            monkeypatch.delenv("PATH")
        elif aspect == "chdir":
            monkeypatch.chdir(tmp_path)
        else:
            monkeypatch.syspath_prepend(str(tmp_path / "prepended"))
        owner = owner_type("record-context", tmp_path, monkeypatch)
        try:
            assert owner.seen_context()[aspect] == _seen_context()[aspect]
        finally:
            owner.close()

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="children are spawned where there is no forkserver",
    )
    def test_children_fork_from_one_shared_server(self):
        parents = []
        for _ in range(2):
            with ProcessWorkerPool(1) as pool:
                parents.append(pool.submit(os.getppid).result(timeout=60))
        assert os.getpid() not in parents  # the server, not this process, forked them
        assert parents[0] == parents[1]  # and the second pool reused it

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="children are spawned where there is no forkserver",
    )
    def test_children_start_with_the_app_package_imported(self, tmp_path):
        # The server preloads the modules of the package ``-m`` ran, so a
        # child's re-run of the main module finds its imports done.  The
        # main module itself is not preloaded (runpy would warn in every
        # child), and a plain script still starts children.
        package = tmp_path / "warm_app"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "helper.py").write_text(
            "import os\n"
            "IMPORTED_PID = os.getpid()\n\n"
            "def imported_before_fork():\n"
            "    return IMPORTED_PID != os.getpid()\n"
        )
        main = (
            "import warm_app.main  # the main module under its own name as well\n"
            "from warm_app import helper\n"
            "from repro.runtime.pool import ProcessWorkerPool\n\n"
            "if __name__ == '__main__':\n"
            "    with ProcessWorkerPool(1) as pool:\n"
            "        print(pool.submit(helper.imported_before_fork).result(timeout=60))\n"
        )
        (package / "main.py").write_text(main)
        (tmp_path / "script.py").write_text(main)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
        )

        def run(*argv):
            done = subprocess.run(
                [sys.executable, *argv], cwd=tmp_path, env=env,
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert "RuntimeWarning" not in done.stderr, done.stderr
            return done.stdout.strip()

        assert run("-m", "warm_app.main") == "True"
        assert run("script.py") in ("True", "False")


def _identity_after_sleep(seconds: float):
    time.sleep(seconds)
    return multiprocessing.current_process().name, os.getpid()


class _GonePipe:
    def send_bytes(self, data):
        raise BrokenPipeError("parent went away")


class TestSupervisedChildLifecycle:
    def _open_fds(self) -> int:
        gc.collect()
        multiprocessing.active_children()  # drops finished Process objects
        return len(os.listdir("/proc/self/fd"))

    def test_pool_children_are_named_by_slot_and_reaped_when_replaced(self):
        # Regression: slots starting together both read ``len(children)`` and
        # named their child ``-0``; a child found dead while idle stayed in
        # the list with its pipe open, so names climbed past ``size``.
        names = ["repro-pool-worker-0", "repro-pool-worker-1"]
        with ProcessWorkerPool(2) as pool:
            def both_slots():
                futures = [pool.submit(_identity_after_sleep, 0.3) for _ in range(2)]
                return dict(future.result(timeout=60) for future in futures)

            before = both_slots()
            assert sorted(before) == names
            fds = self._open_fds()
            os.kill(before[names[0]], signal.SIGKILL)
            _wait_dead(before[names[0]])
            after = both_slots()
            assert sorted(after) == names  # the replacement took over the slot's name
            assert after[names[1]] == before[names[1]]
            assert after[names[0]] != before[names[0]]
            assert pool.restarts == 1
            if os.path.isdir("/proc/self/fd"):
                assert self._open_fds() == fds  # the corpse's pipe did not linger

    def test_reply_downgrade_survives_a_vanished_parent(self):
        # Regression: the pool child's downgrade was a second bare ``send``;
        # with the pipe gone it killed the child with a traceback.
        assert _reply(_GonePipe(), "ok", threading.Lock()) is False
