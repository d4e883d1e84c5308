"""The paper's evaluation applications: Jacobi 2D, Conjugate Gradient, and
OSU-style network microbenchmarks — each in native per-library variants and
one Uniconn variant that runs on every backend."""


def variant_name(backend: str, mode: str = "PureHost") -> str:
    """The app variant a ``--backend`` value (CLI) or ``JobSpec.backend``
    names: a full variant (``elastic:mpi``, ``uniconn:gpushmem:PureDevice``,
    ``gpuccl-native``) passes through; a bare backend becomes
    ``uniconn:<backend>``, plus ``:<mode>`` for a device launch mode.
    (The OSU-only ``uniconn:mpi-rma`` passes through too, but only
    ``run_latency`` accepts it.)"""
    if ":" in backend or backend.endswith("-native"):
        return backend
    return f"uniconn:{backend}" + ("" if mode == "PureHost" else f":{mode}")
