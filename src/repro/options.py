"""Run-option vocabularies shared by layers that must not import each other.

``repro.serve.JobSpec`` validates a request before any simulator module is
loaded (docs/SERVE.md, "What a submit costs"), so the values it checks
against live here — a module that imports nothing — and the simulator
reads them from here too.
"""

__all__ = ["CAPTURE_MODES"]

#: ``launch(capture=...)`` / ``JobSpec.capture`` values (docs/MODEL.md §8).
CAPTURE_MODES = ("off", "regions")
