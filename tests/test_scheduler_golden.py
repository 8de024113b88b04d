"""Golden traces: every strategy × four cohorts, pinned bit-for-bit.

The constants in :data:`GOLDEN` were generated at the commit *before* the
strategies were rewritten as ``plan()`` + one executor (run this file as a
script to regenerate: ``PYTHONPATH=src python tests/test_scheduler_golden.py``).
Each cell pins the makespan, the cluster utilisation, the per-device peak
memory, the wave count, the spilled set and a digest of the sorted
``(task_id, device, start, end)`` rows (floats as ``float.hex``) — or, where
a strategy rejects the cohort, the exact error message.  A refactor of the
scheduler must reproduce all of it exactly, not approximately.
"""

import hashlib

import pytest

from repro.cluster import Cluster, DeviceSpec
from repro.exceptions import SchedulingError
from repro.models import BertConfig, FeedForwardConfig
from repro.scheduler import (
    HybridShardDataParallelStrategy,
    ModelParallelStrategy,
    ShardParallelStrategy,
    SingleDeviceStrategy,
    SpilledShardParallelStrategy,
    TaskParallelStrategy,
    TrainingJob,
)
from repro.sharding import make_plan

STRATEGIES = {
    "single-device": SingleDeviceStrategy,
    "task-parallel": TaskParallelStrategy,
    "model-parallel": ModelParallelStrategy,
    "shard-parallel": ShardParallelStrategy,
    "hybrid": HybridShardDataParallelStrategy,
    "spilled": SpilledShardParallelStrategy,
}


def _mlp_jobs(num_epochs, batches):
    """Two different MLPs (4 and 2 shards) that fit four V100s together."""
    wide = FeedForwardConfig.paper_1_2m().profile()
    narrow = FeedForwardConfig(
        input_dim=128, hidden_dims=(256, 128, 64), num_classes=8
    ).profile()
    return [
        TrainingJob("wide", make_plan("wide", wide, batch_size=16, num_shards=4),
                    num_epochs=num_epochs, batches_per_epoch=batches, samples_per_batch=16),
        TrainingJob("narrow", make_plan("narrow", narrow, batch_size=8, num_shards=2),
                    num_epochs=num_epochs, batches_per_epoch=batches, samples_per_batch=8),
    ]


def fits():
    return Cluster.single_server(4, "v100-16gb"), _mlp_jobs(num_epochs=1, batches=2)


def two_epochs():
    return Cluster.single_server(4, "v100-16gb"), _mlp_jobs(num_epochs=2, batches=3)


def multi_wave():
    """Ten BERT-Large jobs: more resident bytes than four V100s hold at once."""
    profile = BertConfig.bert_large().profile(seq_len=384)
    jobs = [
        TrainingJob(f"bert-{i}", make_plan(f"bert-{i}", profile, batch_size=32, num_shards=4),
                    num_epochs=1, batches_per_epoch=1, samples_per_batch=32)
        for i in range(10)
    ]
    return Cluster.single_server(4, "v100-16gb"), jobs


def over_memory():
    """Three uniform 4-shard MLPs on two devices sized for ~1.7 shards each."""
    profile = FeedForwardConfig(
        input_dim=128, hidden_dims=(128, 128, 128), num_classes=128
    ).profile()
    jobs = [
        TrainingJob(f"big-{i}", make_plan(f"big-{i}", profile, batch_size=2, num_shards=4),
                    num_epochs=1, batches_per_epoch=2, samples_per_batch=2)
        for i in range(3)
    ]
    shards = jobs[0].plan.shards
    memory = int(
        max(s.resident_bytes for s in shards) * 1.7
        + 3 * sum(s.activation_bytes for s in shards)
    )
    spec = DeviceSpec("tiny-gpu", memory_bytes=memory, flops_per_second=14e12)
    return Cluster.single_server(2, gpu=spec), jobs


COHORTS = {
    "fits": fits,
    "multi_wave": multi_wave,
    "over_memory": over_memory,
    "two_epochs": two_epochs,
}


def observe(strategy_name, cohort_name):
    """Everything the golden table pins for one (strategy, cohort) cell."""
    cluster, jobs = COHORTS[cohort_name]()
    try:
        result = STRATEGIES[strategy_name]().schedule(jobs, cluster)
    except SchedulingError as error:
        return {"error": str(error)}
    rows = sorted(
        (r.task_id, r.device, r.start.hex(), r.end.hex()) for r in result.trace.records
    )
    return {
        "makespan": result.makespan.hex(),
        "utilization": result.cluster_utilization.hex(),
        "peak_memory_bytes": dict(result.trace.peak_memory_bytes),
        "waves": result.waves,
        "spilled": [list(key) for key in result.spilled_shards],
        "tasks": len(rows),
        "digest": hashlib.sha256(repr(rows).encode()).hexdigest(),
    }


GOLDEN = {('hybrid', 'fits'): {'digest': '7fb85f3159b742492354f7c3e829532d40f09301a2529c79b59f7bfbf0e7972a',
                      'makespan': '0x1.6ec6d30649532p-13',
                      'peak_memory_bytes': {'gpu0': 6369280,
                                            'gpu1': 6369280,
                                            'gpu2': 6369280,
                                            'gpu3': 6369280},
                      'spilled': [],
                      'tasks': 36,
                      'utilization': '0x1.403666e0c0054p-2',
                      'waves': 1},
 ('hybrid', 'multi_wave'): {'digest': '0bfef8814d69f41fa6af7f9e295fa86bfc8d4c16a26b63da5b96abd5976de4b7',
                            'makespan': '0x1.63c09d0d05dc2p+2',
                            'peak_memory_bytes': {'gpu0': 5126111232,
                                                  'gpu1': 5126111232,
                                                  'gpu2': 5126111232,
                                                  'gpu3': 5126111232},
                            'spilled': [],
                            'tasks': 120,
                            'utilization': '0x1.8b31e168046dep-1',
                            'waves': 1},
 ('hybrid', 'over_memory'): {'error': 'a job uses 4 shards but the cluster only has 2 devices'},
 ('hybrid', 'two_epochs'): {'digest': 'dbf590238082534b0bc3f58d53a1f60f783201a520d9d72fc73c64bd6a40d175',
                            'makespan': '0x1.1dce57897e7d0p-11',
                            'peak_memory_bytes': {'gpu0': 6369280,
                                                  'gpu1': 6369280,
                                                  'gpu2': 6369280,
                                                  'gpu3': 6369280},
                            'spilled': [],
                            'tasks': 108,
                            'utilization': '0x1.3432b2710adc9p-2',
                            'waves': 1},
 ('model-parallel', 'fits'): {'digest': '37dc30ac84fbaaa4061671ec37613892e0d49c0a0266454cb0dcab6b7bc76ef7',
                              'makespan': '0x1.c9842e27de650p-13',
                              'peak_memory_bytes': {'gpu0': 6369280,
                                                    'gpu1': 6330368,
                                                    'gpu2': 1592320,
                                                    'gpu3': 31480},
                              'spilled': [],
                              'tasks': 36,
                              'utilization': '0x1.00b4562e5e430p-2',
                              'waves': 1},
 ('model-parallel', 'multi_wave'): {'digest': 'ba8281af5b7395bbf1599e60ba5bbaa4154002dd527c761cebca774c3e53924c',
                                    'makespan': '0x1.1293c6cb913e3p+4',
                                    'peak_memory_bytes': {'gpu0': 5126111232,
                                                          'gpu1': 4644052992,
                                                          'gpu2': 4644052992,
                                                          'gpu3': 4644175896},
                                    'spilled': [],
                                    'tasks': 120,
                                    'utilization': '0x1.0003b5fb5ff33p-2',
                                    'waves': 1},
 ('model-parallel', 'over_memory'): {'error': "model 'big-0': shards assigned to 'gpu0' need 0.00 "
                                              'GiB; increase the shard count'},
 ('model-parallel', 'two_epochs'): {'digest': '9a2b1672c7aed1928c82818439a0dd4876b834857b2bb0c72c0bbf6370a93315',
                                    'makespan': '0x1.5723229de6cbdp-11',
                                    'peak_memory_bytes': {'gpu0': 6369280,
                                                          'gpu1': 6330368,
                                                          'gpu2': 1592320,
                                                          'gpu3': 31480},
                                    'spilled': [],
                                    'tasks': 108,
                                    'utilization': '0x1.00b4562e5e431p-2',
                                    'waves': 1},
 ('shard-parallel', 'fits'): {'digest': 'e488a63666169d6d0f215f44721aa9c278bb472fc4acd0362024bec38aa57d1f',
                              'makespan': '0x1.6ec6d30649532p-13',
                              'peak_memory_bytes': {'gpu0': 6369280,
                                                    'gpu1': 6734848,
                                                    'gpu2': 2098784,
                                                    'gpu3': 31480},
                              'spilled': [],
                              'tasks': 36,
                              'utilization': '0x1.403666e0c0055p-2',
                              'waves': 1},
 ('shard-parallel', 'multi_wave'): {'digest': '0d51c45b6d9f4c3078d62a42ecbed497df7c4c8eff998ccbb042800851001311',
                                    'makespan': '0x1.b75606ccf6c86p+2',
                                    'peak_memory_bytes': {'gpu0': 14414340120,
                                                          'gpu1': 14414340120,
                                                          'gpu2': 14414217216,
                                                          'gpu3': 13932281880},
                                    'spilled': [],
                                    'tasks': 120,
                                    'utilization': '0x1.400251ba2e2bap-1',
                                    'waves': 4},
 ('shard-parallel', 'over_memory'): {'error': "job 'big-0' does not fit the cluster even when it "
                                              'runs alone: its 4 shards (796672 working bytes in '
                                              'total, largest: shard 0 at 199168) cannot be packed '
                                              "onto the cluster's devices (698264 bytes across 2 "
                                              'devices); consider spill_aware_placement (the '
                                              "'spilled-shard-parallel' strategy) to keep idle "
                                              'shards in host memory'},
 ('shard-parallel', 'two_epochs'): {'digest': 'fc4eec4b3f802031b40d02d00b5289a200bee98d5b5cb513e822a51347b0f423',
                                    'makespan': '0x1.13151e44b6fe5p-11',
                                    'peak_memory_bytes': {'gpu0': 6369280,
                                                          'gpu1': 6734848,
                                                          'gpu2': 2098784,
                                                          'gpu3': 31480},
                                    'spilled': [],
                                    'tasks': 108,
                                    'utilization': '0x1.403666e0c0055p-2',
                                    'waves': 1},
 ('single-device', 'fits'): {'digest': '5f8a8460722ed96e19ead7192735354196d66ff32ee884c7f9022562e6078fa7',
                             'makespan': '0x1.2aa72834fb2adp-16',
                             'peak_memory_bytes': {'gpu0': 14323448},
                             'spilled': [],
                             'tasks': 36,
                             'utilization': '0x1.0000000000000p-2',
                             'waves': 1},
 ('single-device', 'multi_wave'): {'error': "model 'bert-0' needs 17.75 GiB but device 'gpu0' has "
                                            '16.00 GiB; single-device training is infeasible (this '
                                            'is the case that motivates model parallelism)'},
 ('single-device', 'over_memory'): {'error': "model 'big-0' needs 0.00 GiB but device 'gpu0' has "
                                             '0.00 GiB; single-device training is infeasible (this '
                                             'is the case that motivates model parallelism)'},
 ('single-device', 'two_epochs'): {'digest': 'a04a66c0c3f7064090d804a77087d87ae73e968272905fa29e0b2b1ead9aa32e',
                                   'makespan': '0x1.bffabc4f78c02p-15',
                                   'peak_memory_bytes': {'gpu0': 14323448},
                                   'spilled': [],
                                   'tasks': 108,
                                   'utilization': '0x1.0000000000000p-2',
                                   'waves': 1},
 ('spilled', 'fits'): {'digest': 'e488a63666169d6d0f215f44721aa9c278bb472fc4acd0362024bec38aa57d1f',
                       'makespan': '0x1.6ec6d30649532p-13',
                       'peak_memory_bytes': {'gpu0': 6369280,
                                             'gpu1': 6734848,
                                             'gpu2': 2098784,
                                             'gpu3': 31480,
                                             'host': 0},
                       'spilled': [],
                       'tasks': 36,
                       'utilization': '0x1.002b8580999dep-2',
                       'waves': 1},
 ('spilled', 'multi_wave'): {'error': 'shard bert-0/shard0 needs 1288323072 resident bytes during '
                                      'its passes next to 37673533440 bytes of activations on '
                                      'gpu0, which exceeds the device even with host spilling'},
 ('spilled', 'over_memory'): {'digest': '2b78ef504fc95bd4fbfa0c37f7cee256d63e7018e0b40ea4e0d0a60dc4dcad35',
                              'makespan': '0x1.f70bed5b31bfep-10',
                              'peak_memory_bytes': {'gpu0': 201216,
                                                    'gpu1': 201216,
                                                    'host': 2377728},
                              'spilled': [['big-0', 0],
                                          ['big-0', 1],
                                          ['big-0', 2],
                                          ['big-0', 3],
                                          ['big-1', 0],
                                          ['big-1', 1],
                                          ['big-1', 2],
                                          ['big-1', 3],
                                          ['big-2', 0],
                                          ['big-2', 1],
                                          ['big-2', 2],
                                          ['big-2', 3]],
                              'tasks': 144,
                              'utilization': '0x1.9434e31331cd5p-2',
                              'waves': 1},
 ('spilled', 'two_epochs'): {'digest': 'fc4eec4b3f802031b40d02d00b5289a200bee98d5b5cb513e822a51347b0f423',
                             'makespan': '0x1.13151e44b6fe5p-11',
                             'peak_memory_bytes': {'gpu0': 6369280,
                                                   'gpu1': 6734848,
                                                   'gpu2': 2098784,
                                                   'gpu3': 31480,
                                                   'host': 0},
                             'spilled': [],
                             'tasks': 108,
                             'utilization': '0x1.002b8580999ddp-2',
                             'waves': 1},
 ('task-parallel', 'fits'): {'digest': '1a6e09c118fdc8e88917c4ddb5dac831789c7f0e5a2f53d29074872b52c18f74',
                             'makespan': '0x1.2109b6b8abcc9p-16',
                             'peak_memory_bytes': {'gpu0': 14323448,
                                                   'gpu1': 910944,
                                                   'gpu2': 0,
                                                   'gpu3': 0},
                             'spilled': [],
                             'tasks': 36,
                             'utilization': '0x1.088417b514cf2p-2',
                             'waves': 1},
 ('task-parallel', 'multi_wave'): {'error': "task parallelism cannot train model 'bert-0': it "
                                            "needs 17.75 GiB on a single device but 'gpu0' has "
                                            '16.00 GiB — the model must be sharded'},
 ('task-parallel', 'over_memory'): {'error': "task parallelism cannot train model 'big-0': it "
                                             "needs 0.00 GiB on a single device but 'gpu0' has "
                                             '0.00 GiB — the model must be sharded'},
 ('task-parallel', 'two_epochs'): {'digest': '406604eddc88e62bc179b134ecc6bbf0f76fa30cf7913b01e08f095fbb1125a7',
                                   'makespan': '0x1.b18e921501b2cp-15',
                                   'peak_memory_bytes': {'gpu0': 14323448,
                                                         'gpu1': 910944,
                                                         'gpu2': 0,
                                                         'gpu3': 0},
                                   'spilled': [],
                                   'tasks': 108,
                                   'utilization': '0x1.088417b514cf1p-2',
                                   'waves': 1}}


@pytest.mark.parametrize("cohort_name", sorted(COHORTS))
@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
def test_trace_is_bit_identical_to_the_pinned_one(strategy_name, cohort_name):
    assert observe(strategy_name, cohort_name) == GOLDEN[strategy_name, cohort_name]


def test_fixtures_exercise_what_they_claim():
    """The table must contain waves, spills and rejections — not four easy cases."""
    assert GOLDEN["shard-parallel", "multi_wave"]["waves"] >= 2
    assert GOLDEN["spilled", "over_memory"]["spilled"]
    assert "error" in GOLDEN["task-parallel", "multi_wave"]
    assert all("error" not in GOLDEN[name, "fits"] for name in STRATEGIES)


if __name__ == "__main__":  # regenerate the table
    import pprint

    table = {
        (s, c): observe(s, c) for s in sorted(STRATEGIES) for c in sorted(COHORTS)
    }
    print("GOLDEN = " + pprint.pformat(table, width=100, sort_dicts=True))
