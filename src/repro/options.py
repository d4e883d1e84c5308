"""Run-option vocabularies and bounds: the one declaration of each.

``repro.serve.JobSpec`` validates a request, and ``repro.cli`` builds its
parser, before any simulator module is loaded (docs/SERVE.md, "What a
submit costs"), so the values they check against live here — a module
that imports nothing — and ``launcher.launch`` and ``apps.cg`` read them
from here too. ``tests/test_options.py`` holds each to the enum, registry
or builder that implements it.
"""

__all__ = ["APPS", "BACKENDS", "CAPTURE_MODES", "CG_MIN_ROWS", "LAUNCH_MODES",
           "MACHINES", "NATIVES", "OBS_LEVELS"]

#: ``JobSpec.app`` / ``repro submit --app``: what the serve runner executes.
APPS = ("jacobi", "cg", "latency", "bandwidth")

#: ``--backend`` / ``JobSpec.backend`` / ``Environment(backend=...)``: the
#: names ``repro.core.resolve_backend`` knows. ``mpi-rma`` is the MPI
#: library with one-sided Post/Acknowledge (window put + signal).
BACKENDS = ("mpi", "mpi-rma", "gpuccl", "gpushmem")

#: The per-library variants every app ships beside its Uniconn one.
NATIVES = ("mpi-native", "gpuccl-native", "gpushmem-host-native",
           "gpushmem-device-native")

#: The fewest rows ``apps.cg.synthetic_spd`` builds; ``JobSpec(app="cg")``
#: rejects a smaller ``size`` before anything is queued.
CG_MIN_ROWS = 8

#: ``launch(capture=...)`` / ``JobSpec.capture`` values (docs/MODEL.md §8).
CAPTURE_MODES = ("off", "regions")

#: ``--mode`` / ``JobSpec.mode``: the names of ``repro.core.LaunchMode``.
LAUNCH_MODES = ("PureHost", "PartialDevice", "PureDevice")

#: ``--machine`` presets: the keys of ``repro.hardware.MACHINES``.
MACHINES = ("perlmutter", "lumi", "marenostrum5")

#: ``launch(obs=...)`` / ``JobSpec.obs`` levels (docs/OBSERVABILITY.md).
OBS_LEVELS = ("off", "metrics", "spans")
