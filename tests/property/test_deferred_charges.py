"""Deferred host charges are invisible: generated straight-line Coordinator
programs trace and compute identically as launched by default (the uniform
layer's charges kept as busy-time debt, ``Engine.defer_busy``) and as their
eager twin: the same launch under a fault plan that never fires, which —
like a watchdog or capture — makes the engine sleep each charge where it
is made. The identity holds on every instrument axis: none, span tracing,
the race sanitizer, or both — each of which observes deferred charges
(records stamp the caller's own time; an access settles at entry)
instead of making them sleep. A device-API axis (``NATIVE`` steps) calls
the blocking GPUSHMEM API natively, from the kernel in a device mode and
from the host in PureHost."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Communicator, Coordinator, Environment, Memory, launch
from repro.core import IN_PLACE
from repro.gpu import device_kernel, kernel
from repro.hardware import KernelCost
from repro.sim import Tracer, to_chrome_trace
from tests.sim.test_fastpath import INERT_PLAN
from tests.sim.test_fastpath import INSTRUMENTS as INSTRUMENTED

COUNT = 16


@kernel(cost=KernelCost(bytes_moved=4096.0))
def _bump(ctx, buf, by):
    buf.data[:] += by


@device_kernel()
def _bump_or_send(ctx, buf, by, then):
    """The device modes' one kernel: a ``launch`` step's bump, or (``then``
    set by the step that launches it) that step's device half."""
    ctx.compute(KernelCost(bytes_moved=4096.0))
    if then is None:
        buf.data[:] += by
    else:
        then(ctx, buf)


def _exchange_half(recv, sig, to, frm, comm_d):
    """The device half of an exchange: the payload put alone when it carries
    no signal (PartialDevice), the acknowledge too when it does
    (PureDevice)."""
    def run(ctx, buf):
        if to is not None:
            ctx.uniconn.post(buf, recv, COUNT, sig, 1, to, comm_d)
        if sig is not None and frm is not None:
            ctx.uniconn.acknowledge(recv, COUNT, sig, 1, frm, comm_d)

    return run


#: The device-API axis: blocking GPUSHMEM calls made natively — from the
#: kernel (``ctx.shmem``) in a device mode, from the host in PureHost.
NATIVE = ("put", "put_nbi", "get", "fence")


def _native_call(shmem, op, work, landing, const, flag, peer):
    """One native call into the next rank's ``landing`` slot (or, for a get,
    out of its never-written ``const``). The host API has no ``put_nbi``:
    there it is the other blocking put, ``put_signal``."""
    if op == "put":
        shmem.put(landing, work, COUNT, peer)
    elif op == "put_nbi" and hasattr(shmem, "put_nbi"):
        shmem.put_nbi(landing, work, COUNT, peer)
        shmem.quiet()
    elif op == "put_nbi":
        shmem.put_signal(landing, work, COUNT, flag, 1, peer)
    elif op == "get":
        shmem.get(landing, const, COUNT, peer)
    else:
        shmem.fence()


def _program(backend, nranks, steps, omit=None, mode="PureHost"):
    """One rank's body for ``steps``; every rank runs the same list.

    Each exchange (and native) step owns its send/recv/signal slots, so the
    program is race-free by construction and every payload depends on the
    kernels launched before it (they bump the buffer the next exchange
    sends). ``omit`` seeds a bug (``test_sanitize_reference.py``): the
    ``acknowledge`` or ``synchronize`` of step ``omit`` is left out
    (``len(steps)``: the closing ``synchronize``). In a device ``mode``
    (GPUSHMEM) every exchange first launches its device half; the host
    calls that follow are the same, and mean what that mode makes of them.
    A native step runs on GPUSHMEM only.
    """
    n_x = sum(1 for s in steps if s[0] == "exchange")
    n_native = sum(1 for s in steps if s[0] == "native") if backend == "gpushmem" else 0

    def body(ctx):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        comm = Communicator(env)
        stream = env.device.create_stream()
        coord = Coordinator(env, stream=stream, launch_mode=mode)
        me, engine = comm.global_rank(), env.engine
        work = Memory.alloc(env, COUNT)
        recvs = [Memory.alloc(env, COUNT) for _ in range(n_x)]
        sig = (Memory.alloc(env, max(1, n_x), dtype=np.uint64)
               if coord.uses_signals else None)
        work.write(np.full(COUNT, float(me + 1), np.float32))
        if n_native:
            lands, const = Memory.alloc(env, COUNT * n_native), Memory.alloc(env, COUNT)
            flags = Memory.alloc(env, n_native, dtype=np.uint64)
        coord.bind_kernel("PureHost", _bump, 1, 32, args=lambda: (work, float(me + 1)))
        then = [None]  # what the next device launch does besides its compute
        if mode != "PureHost":
            comm_d = comm.to_device()
            coord.bind_kernel(mode, _bump_or_send, 1, 32,
                              args=lambda: (work, float(me + 1), then[0]))

        def device_launch(half):
            then[0] = half
            coord.launch_kernel()
            then[0] = None

        def device_half(recv, s, to, frm):
            if mode != "PureHost":
                device_launch(_exchange_half(recv, s if mode == "PureDevice" else None,
                                             to, frm, comm_d))

        def native(op, k):
            call = (op, work, lands.offset_by(k * COUNT, COUNT), const,
                    flags.offset_by(k, 1), (me + 1) % nranks)
            if mode == "PureHost":
                stream.synchronize()  # the host reads `work` the kernels write
                _native_call(env.shmem, *call)
            else:
                device_launch(lambda ctx, buf: _native_call(ctx.shmem, *call))

        comm.barrier(stream=stream)
        t0, clock, x, k = engine.now, [], 0, 0
        for i, step in enumerate(steps):
            if step[0] == "exchange":
                _, grouped, shift = step
                s = sig.offset_by(x, 1) if sig is not None else None
                if grouped:  # a ring: everyone posts `shift` ahead
                    to, frm = (me + shift) % nranks, (me - shift) % nranks
                    device_half(recvs[x], s, to, frm)
                    coord.comm_start()
                    coord.post(work, recvs[x], COUNT, s, 1, to, comm, tag=x)
                    if i != omit:
                        coord.acknowledge(recvs[x], COUNT, s, 1, frm, comm, tag=x)
                    coord.comm_end()
                elif (me ^ 1) < nranks:  # ungrouped: pairs, lower rank posts first
                    peer = me ^ 1
                    device_half(recvs[x], s, peer, peer)
                    for op in ("post", "ack") if me < peer else ("ack", "post"):
                        if op == "post":
                            coord.post(work, recvs[x], COUNT, s, 1, peer, comm, tag=x)
                        elif i != omit:
                            coord.acknowledge(recvs[x], COUNT, s, 1, peer, comm, tag=x)
                x += 1
            elif step[0] == "launch":
                coord.launch_kernel()
            elif step[0] == "all_reduce":
                coord.all_reduce(IN_PLACE, work, COUNT, "sum", comm)
            elif step[0] == "broadcast":
                coord.broadcast(work, COUNT, step[1] % nranks, comm)
            elif step[0] == "sync":
                if i != omit:
                    stream.synchronize()
            elif step[0] == "native":
                if n_native:
                    native(step[1], k)
                    k += 1
            else:  # "now"
                clock.append(engine.now - t0)
        if n_native:
            comm.barrier(stream=stream)  # every put lands before its target reads
        if omit != len(steps):
            stream.synchronize()
        out = (clock, engine.now - t0, work.read().copy(), [r.read().copy() for r in recvs],
               lands.read().copy() if n_native else None)
        env.close()
        return out

    return body


STEP = st.one_of(
    st.tuples(st.just("exchange"), st.booleans(), st.integers(1, 4)),
    st.tuples(st.just("launch")),
    st.tuples(st.just("all_reduce")),
    st.tuples(st.just("broadcast"), st.integers(0, 4)),
    st.tuples(st.just("sync")),
    st.tuples(st.just("now")),
    st.tuples(st.just("native"), st.sampled_from(NATIVE)),
)


INSTRUMENTS = {"none": {}, **INSTRUMENTED}


def _run(deferred, variant, nranks, steps, instrument):
    backend, _, mode = variant.partition(":")
    tracer = Tracer()
    report = launch(_program(backend, nranks, steps, mode=mode or "PureHost"),
                    nranks, tracer=tracer, fault_plan=None if deferred else INERT_PLAN,
                    **INSTRUMENTS[instrument])
    trace = json.dumps({"traceEvents": to_chrome_trace(tracer)}, sort_keys=True)
    doc = report.to_dict()
    return trace, (doc["results"], doc["races"]), report.stats


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from(["mpi", "gpuccl", "gpushmem", "gpushmem:PartialDevice",
                             "gpushmem:PureDevice"]),
    nranks=st.integers(2, 5),
    steps=st.lists(STEP, min_size=1, max_size=10),
    instrument=st.sampled_from(sorted(INSTRUMENTS)),
)
def test_deferred_charges_match_the_eager_reference(variant, nranks, steps, instrument):
    deferred = _run(True, variant, nranks, steps, instrument)
    reference = _run(False, variant, nranks, steps, instrument)
    assert deferred[0] == reference[0]  # trace
    # Clock reads, end time, payload digests; the sanitizer's findings.
    assert deferred[1] == reference[1]
    # Same timeline, and deferral never costs a handoff (a charge followed
    # at once by a clock read is settled there: equal; anything else: fewer).
    assert deferred[2]["timers_fired"] == reference[2]["timers_fired"]
    assert deferred[2]["switches"] <= reference[2]["switches"]
