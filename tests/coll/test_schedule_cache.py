"""One owner for generated schedules: the communicator's Topology.

Every rank of a communicator, the policy that ranks candidates and the
backend model that times the winner draw schedules from the same
:meth:`repro.coll.Topology.schedule` memo, so ``generate`` runs once per
distinct ``(algorithm, kind, count, root)`` — not once per rank per call.
The memo lives on the Topology object and never under ``signature()``:
two split communicators with equal per-node counts but different
rank -> node placement must each get their own ``hier`` schedule.
"""

from collections import Counter

import numpy as np
import pytest

import repro.coll.cost as cost_module
from repro import Communicator, Coordinator, Environment, Memory, launch
from repro.apps.osu import OsuConfig, run_collective
from repro.coll import Topology, execute_schedule, reference_collective
from repro.hardware import Cluster, get_machine

BACKENDS = ["mpi", "gpuccl", "gpushmem"]


@pytest.fixture
def generated(monkeypatch):
    """Counts ``generate`` calls as the schedule memo issues them, keyed
    by everything that distinguishes one schedule from another."""
    calls = Counter()
    real = cost_module.generate

    def counting(algorithm, kind, nranks, count, *, topo=None, root=0):
        groups = tuple(map(tuple, topo.groups()))
        calls[(algorithm, kind, count, root, tuple(topo.gpu_ids), groups)] += 1
        return real(algorithm, kind, nranks, count, topo=topo, root=root)

    monkeypatch.setattr(cost_module, "generate", counting)
    return calls


def test_mpi_all_gather_sweep_generates_each_schedule_once(generated):
    cfg = OsuConfig(sizes=(64, 5000, 300000), iters_small=2, warmup_small=1,
                    iters_large=2, warmup_large=1, repeats=1)
    times = run_collective("mpi", "all_gather", cfg, gpus=16, coll="auto")
    assert sorted(times) == sorted(cfg.sizes)
    # Executed schedules (float32 element counts) next to priced ones
    # (byte counts): the sweep really ran generated step programs.
    executed = [k for k in generated if k[2] in (16, 1250, 75000)]
    assert executed and all(k[1] == "all_gather" for k in executed)
    assert set(generated.values()) == {1}, {
        k[:4]: n for k, n in generated.items() if n != 1}


def test_gpuccl_uid_bootstrap_generates_each_schedule_once(generated):
    def body(ctx):
        with Environment(ctx, backend="gpuccl") as env:
            env.set_device(env.node_rank())
            with Communicator(env) as world:
                return world.global_size()

    assert launch(body, 64, coll="auto") == [64] * 64
    bcasts = [k for k in generated if k[1] == "broadcast"]
    assert bcasts, "the uid bootstrap consulted no schedule"
    assert set(generated.values()) == {1}, {
        k[:4]: n for k, n in generated.items() if n != 1}


def test_topology_schedule_is_per_object_not_per_signature():
    spec = get_machine("perlmutter")
    cluster = Cluster(spec, 2)
    g = spec.gpus_per_node
    packed = Topology(cluster, [0, 1, g, g + 1])
    striped = Topology(cluster, [2, g + 2, 3, g + 3])
    assert packed.signature() == striped.signature()
    assert packed.groups() != striped.groups()
    a = packed.schedule("hier", "all_reduce", 24)
    b = striped.schedule("hier", "all_reduce", 24)
    assert a is packed.schedule("hier", "all_reduce", 24)
    assert a is not b
    # Node leaders differ, so the inter-node round pairs different ranks.
    pairs = [sorted((r, st.peer) for rnd in s.rounds
                    for r, steps in rnd.items() for st in steps)
             for s in (a, b)]
    assert pairs[0] != pairs[1]
    inputs = [np.arange(24, dtype=np.float64) + r for r in range(4)]
    want = reference_collective("all_reduce", inputs)
    for sched in (a, b):
        for got, ref in zip(execute_schedule(sched, inputs), want):
            np.testing.assert_array_equal(got, ref)
    assert packed.schedule("bruck", "all_reduce", 24) is None


def _split_hier_allreduce(ctx, backend):
    """8 ranks on 2 nodes split into two 4-rank communicators with the
    same signature: colour 0 keeps node order (ranks 0,1,4,5), colour 1 is
    keyed so that its members alternate between the nodes (2,6,3,7)."""
    order = {0: [0, 1, 4, 5], 1: [2, 6, 3, 7]}
    with Environment(ctx, backend=backend) as env:
        env.set_device(env.node_rank())
        with Communicator(env) as world:
            coord = Coordinator(env, stream=env.device.create_stream())
            me = world.global_rank()
            color = 0 if me in order[0] else 1
            sub = world.split(color, key=order[color].index(me))
            n = 24
            send = Memory.alloc(env, n)
            recv = Memory.alloc(env, n)
            send.write(np.arange(n, dtype=np.float64) * (me + 1))
            coord.all_reduce(send, recv, n, "sum", sub)
            coord.stream.synchronize()
            return color, sub.global_rank(), recv.read().copy()


@pytest.mark.parametrize("backend", BACKENDS)
def test_equal_signature_splits_each_get_their_own_hier_schedule(
        backend, generated):
    results = launch(_split_hier_allreduce, 8, args=(backend,), coll="hier")
    members = {0: [0, 1, 4, 5], 1: [2, 6, 3, 7]}
    for world_rank, (color, sub_rank, got) in enumerate(results):
        assert members[color][sub_rank] == world_rank
        want = np.arange(24, dtype=np.float64) * sum(
            m + 1 for m in members[color])
        np.testing.assert_array_equal(got, want)
    hier = {k[5] for k in generated
            if k[0] == "hier" and k[1] == "all_reduce" and len(k[4]) == 4}
    assert hier == {((0, 1), (2, 3)), ((0, 2), (1, 3))}
