"""Performance-guided automatic backend selection (paper Section VII).

The paper leaves "performance-guided automated backend library selection"
as future work and points at MCR-DL's per-message-size tuning as the model.
This module implements exactly that on top of Uniconn's own API:

1. :meth:`SelectionTable.tune` probes every available backend with the
   Uniconn latency benchmark over a grid of message sizes, intra-node and
   inter-node;
2. the resulting table answers ``best(nbytes, inter_node)`` by nearest
   probed size (log-scale), like MCR-DL's tuning cache;
3. tables serialize to/from JSON so one tuning run per machine can be
   reused across application runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import UniconnError
from ..hardware.machines import MachineSpec, get_machine

__all__ = ["SelectionTable", "DEFAULT_PROBE_SIZES"]

DEFAULT_PROBE_SIZES = (8, 64, 512, 4096, 32768, 262144, 2097152)


@dataclass
class SelectionTable:
    """Per-machine map (locality, message size) -> best backend."""

    machine: str
    probe_sizes: Tuple[int, ...]
    # locality ("intra"|"inter") -> size -> backend -> latency seconds
    measurements: Dict[str, Dict[int, Dict[str, float]]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Tuning.
    # ------------------------------------------------------------------ #

    @classmethod
    def tune(
        cls,
        machine: Union[str, MachineSpec] = "perlmutter",
        probe_sizes: Sequence[int] = DEFAULT_PROBE_SIZES,
        backends: Optional[Sequence[str]] = None,
        include_device_api: bool = True,
        iters: int = 20,
    ) -> "SelectionTable":
        """Probe every backend through the Uniconn API and build the table."""
        from ..apps.osu import OsuConfig, run_latency

        spec = get_machine(machine) if isinstance(machine, str) else machine
        if backends is None:
            backends = ["mpi", "gpuccl"] + (["gpushmem"] if spec.has_gpushmem() else [])
        variants = [f"uniconn:{b}" for b in backends]
        if include_device_api and spec.has_gpushmem() and "gpushmem" in backends:
            variants.append("uniconn:gpushmem-device")

        cfg = OsuConfig(sizes=tuple(probe_sizes), iters_small=iters,
                        warmup_small=max(1, iters // 10),
                        iters_large=max(4, iters // 3), warmup_large=1, repeats=3)
        table = cls(machine=spec.name, probe_sizes=tuple(probe_sizes))
        for inter in (False, True):
            loc = "inter" if inter else "intra"
            per_size: Dict[int, Dict[str, float]] = {s: {} for s in probe_sizes}
            for variant in variants:
                lat = run_latency(variant, cfg, machine=spec, inter_node=inter)
                name = variant.split(":", 1)[1]
                for size, t in lat.items():
                    per_size[size][name] = t
            table.measurements[loc] = per_size
        return table

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #

    def _bucket(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise UniconnError(f"invalid message size {nbytes}")
        return min(self.probe_sizes, key=lambda s: abs(math.log2(s) - math.log2(nbytes)))

    def candidates(self, nbytes: int, inter_node: bool = False) -> Dict[str, float]:
        """Backend -> probed latency for the nearest probed size."""
        loc = "inter" if inter_node else "intra"
        if loc not in self.measurements:
            raise UniconnError(f"table has no {loc}-node measurements (tune first)")
        return dict(self.measurements[loc][self._bucket(nbytes)])

    def best(self, nbytes: int, inter_node: bool = False, host_api_only: bool = False) -> str:
        """The fastest backend for this message size and locality."""
        cands = self.candidates(nbytes, inter_node)
        if host_api_only:
            cands.pop("gpushmem-device", None)
        return min(cands, key=cands.get)

    def crossover_sizes(self, inter_node: bool = False) -> List[Tuple[int, str]]:
        """(size, winner) for each probed size — where the winner changes."""
        loc = "inter" if inter_node else "intra"
        out = []
        prev = None
        for size in self.probe_sizes:
            winner = min(self.measurements[loc][size], key=self.measurements[loc][size].get)
            if winner != prev:
                out.append((size, winner))
                prev = winner
        return out

    # ------------------------------------------------------------------ #
    # Persistence (the MCR-DL-style tuning cache).
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        """Serialize the tuning table (the MCR-DL-style cache format)."""
        return json.dumps({
            "machine": self.machine,
            "probe_sizes": list(self.probe_sizes),
            "measurements": {
                loc: {str(s): m for s, m in per.items()}
                for loc, per in self.measurements.items()
            },
        })

    @classmethod
    def from_json(cls, text: str) -> "SelectionTable":
        """Rebuild a table from its JSON form."""
        raw = json.loads(text)
        table = cls(machine=raw["machine"], probe_sizes=tuple(raw["probe_sizes"]))
        table.measurements = {
            loc: {int(s): dict(m) for s, m in per.items()}
            for loc, per in raw["measurements"].items()
        }
        return table

    def save(self, path: str) -> None:
        """Write the tuning cache to disk."""
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "SelectionTable":
        """Load a tuning cache written by save()."""
        with open(path) as fh:
            return cls.from_json(fh.read())
