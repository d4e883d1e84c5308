"""Deterministic discrete-event simulation substrate.

The engine runs simulated processes as cooperatively scheduled threads over
a virtual clock; all inter-GPU communication timing in this package is
expressed as events on that clock.
"""

from .capture import CaptureRegion, CaptureRuntime, loop_region
from .chrometrace import to_chrome_trace, write_chrome_trace
from .engine import Engine, EngineStats, Task, Timer, current_engine
from .faults import (
    FaultInjector,
    FaultPlan,
    LinkFault,
    MessageFault,
    RankCrash,
    Straggler,
)
from .spmd import run_spmd
from .sync import Broadcast, Counter, SimEvent, wait_until
from .trace import TraceRecord, Tracer

__all__ = [
    "Engine",
    "EngineStats",
    "Task",
    "Timer",
    "current_engine",
    "run_spmd",
    "Broadcast",
    "Counter",
    "SimEvent",
    "wait_until",
    "TraceRecord",
    "Tracer",
    "to_chrome_trace",
    "write_chrome_trace",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "MessageFault",
    "RankCrash",
    "Straggler",
    "CaptureRegion",
    "CaptureRuntime",
    "loop_region",
]
