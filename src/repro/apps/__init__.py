"""The paper's evaluation applications: Jacobi 2D, Conjugate Gradient, and
OSU-style network microbenchmarks — each in native per-library variants and
one Uniconn variant that runs on every backend. (Imports no app: ``JobSpec``
validates a request with :func:`parse_variant`.)"""

from typing import Tuple

from ..options import BACKENDS, LAUNCH_MODES, NATIVES

#: The backends the elastic (shrink-and-replay) variants run over.
_ELASTIC_BACKENDS = ("mpi", "gpuccl", "gpushmem")

#: The OSU apps' device-mode Uniconn variant, a name outside the grammar.
OSU_DEVICE_VARIANT = "uniconn:gpushmem-device"


def parse_variant(variant: str, mode: str = "PureHost") -> Tuple[str, str, str]:
    """``(family, backend, mode)`` of ``variant`` run in launch mode
    ``mode``, or a ValueError saying what is wrong. The grammar is
    ``<library>-native`` (``options.NATIVES``; the backend is the variant)
    | ``uniconn:<backend>[:<mode>]`` (a bare backend is short for it) |
    ``elastic:<backend>``; only ``uniconn:gpushmem`` takes a device mode,
    and a mode given twice must agree."""
    family, backend, named = "uniconn", variant, ""
    if variant in NATIVES:
        family = "native"
    elif ":" in variant:
        family, _, rest = variant.partition(":")
        backend, _, named = rest.partition(":")
        if family not in ("uniconn", "elastic") or ":" in named or (family == "elastic" and named):
            raise ValueError(f"unknown variant {variant!r} (expected <library>-native, "
                             f"uniconn:<backend>[:<mode>] or elastic:<backend>)")
    known = _ELASTIC_BACKENDS if family == "elastic" else BACKENDS
    if family != "native" and backend not in known:
        raise ValueError(f"unknown backend {backend!r} in variant {variant!r} "
                         f"(expected one of {known})")
    if named:
        if named not in LAUNCH_MODES or mode not in ("PureHost", named):
            raise ValueError(f"mode {named!r} of variant {variant!r} is not one of "
                             f"{LAUNCH_MODES} or contradicts mode {mode!r}")
        mode = named
    if mode != "PureHost" and (family, backend) != ("uniconn", "gpushmem"):
        raise ValueError(f"mode {mode!r} does not apply to variant {variant!r} "
                         f"(a device mode needs the gpushmem backend)")
    return family, backend, mode


def variant_name(backend: str, mode: str = "PureHost") -> str:
    """The app variant a ``--backend`` value (CLI) or ``JobSpec.backend``
    names: a full variant (``elastic:mpi``, ``gpuccl-native``, the OSU-only
    ``uniconn:gpushmem-device``) passes through; a backend of
    ``options.BACKENDS`` (``mpi-rma`` too) becomes ``uniconn:<backend>``,
    plus ``:<mode>`` for a device launch mode."""
    if ":" in backend or backend.endswith("-native"):
        return backend
    return f"uniconn:{backend}" + ("" if mode == "PureHost" else f":{mode}")
