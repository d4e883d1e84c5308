"""Generate EXPERIMENTS.md from benchmarks/results/*.json.

Run the benches first (``pytest benchmarks/ --benchmark-only`` or each
``python -m benchmarks.bench_*``), then ``python -m
benchmarks.generate_experiments_md``. The file is rewritten whole: anything
written by hand belongs in docs/LOGBOOK.md, which the generated text links
and nothing generates.
"""

from __future__ import annotations

import json
import os
from datetime import date

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
OUT = os.path.join(os.path.dirname(HERE), "EXPERIMENTS.md")


def load(name):
    path = os.path.join(RESULTS, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def us(x):
    return f"{float(x) * 1e6:.2f}"


def fig2_section(d):
    if d is None:
        return "*(run bench_fig2_motivation first)*\n"
    out = []
    small = "8"
    for key in ("perlmutter-intra", "perlmutter-inter", "lumi-intra", "lumi-inter"):
        lat = d[key]["latency_s"]
        winner = min(lat, key=lambda v: float(lat[v][small]))
        row = ", ".join(f"{v} {us(t[small])}us" for v, t in lat.items())
        out.append(f"- **{key}** 8B latency: {row} → winner **{winner}**")
    pi = d["perlmutter-intra"]["bandwidth_Bps"]
    big = str(max(int(k) for k in next(iter(pi.values()))))
    out.append(
        f"- Perlmutter intra {int(big) >> 20}MiB bandwidth: "
        + ", ".join(f"{v} {float(t[big]) / 1e9:.1f}GB/s" for v, t in pi.items())
    )
    out.append("")
    out.append("Shape vs paper: intra-node small messages won by device-initiated "
               "NVSHMEM, inter-node small messages by MPI's eager path, RCCL on "
               "LUMI far behind NCCL on Perlmutter, all libraries near wire rate "
               "at 4MiB — the 'no single winner' motivation holds.")
    return "\n".join(out) + "\n"


def fig34_section(d, paper_bound):
    if d is None:
        return "*(run the bench first)*\n"
    out = ["| machine | backend | mean diff | worst diff |", "|---|---|---|---|"]
    for machine, data in d.items():
        for label, inset in data["pct_inset"].items():
            out.append(f"| {machine} | {label} | {inset['mean_pct']:+.2f}% | {inset['max_pct']:+.2f}% |")
    out.append("")
    out.append(paper_bound)
    return "\n".join(out) + "\n"


def fig5_section(d):
    if d is None:
        return "*(run bench_fig5_jacobi first)*\n"
    out = ["| machine | backend | Uniconn-vs-native mean | worst |", "|---|---|---|---|"]
    for machine, data in d.items():
        for label, inset in data["pct_inset"].items():
            out.append(f"| {machine} | {label} | {inset['mean_pct']:+.2f}% | {inset['max_pct']:+.2f}% |")
    some = next(iter(d.values()))["runtime_s"]
    series = next(iter(some.values()))
    counts = sorted(int(k) for k in series)
    out.append("")
    out.append(f"Strong scaling measured over GPU counts {counts}; runtime decreases "
               "with GPU count on every machine (see results/fig5_jacobi.json for "
               "the full curves). Paper: <1% average difference at all counts.")
    return "\n".join(out) + "\n"


def fig6_section(d):
    if d is None:
        return "*(run bench_fig6_cg first)*\n"
    out = ["| machine/matrix | backend | native | uniconn | diff |", "|---|---|---|---|---|"]
    for key, rows in d.items():
        for label, r in rows.items():
            out.append(
                f"| {key} | {label} | {float(r['native_s']) * 1e3:.2f}ms "
                f"| {float(r['uniconn_s']) * 1e3:.2f}ms | {r['diff_pct']:+.2f}% |"
            )
    out.append("")
    out.append("Paper: Uniconn within ~1% of each native (device ~3% on Serena); "
               "MPI native *and* Uniconn-MPI far slower than the rest because of "
               "the AllGatherv collective — both hold (our MPI is ~2-3x slower; "
               "our device-API difference is ~0%, i.e. even tighter than the "
               "paper's 3% worst case, since the simulated device dispatch is "
               "deterministic and occupancy effects are not modelled).")
    return "\n".join(out) + "\n"


def table1_section(d):
    if d is None:
        return "*(run bench_table1_machines first)*\n"
    out = ["| machine | GPUs/node | GPU | intra GB/s | NIC GB/s | GPUSHMEM |", "|---|---|---|---|---|---|"]
    for name, row in d.items():
        out.append(
            f"| {name} | {row['gpus_per_node']} | {row['gpu']} | "
            f"{row['intra_GBps']:.0f} | {row['nic_GBps']:.1f} | "
            f"{'yes' if row['gpushmem'] else 'N/A'} |"
        )
    return "\n".join(out) + "\n"


def table2_section(d):
    if d is None:
        return "*(run bench_table2_sloc first)*\n"
    paper = {
        "Latency": {"MPI": 112, "GPUCCL": 122, "GPUSHMEM_Device": 139, "Uniconn": 125},
        "Bandwidth": {"MPI": 122, "GPUCCL": 131, "GPUSHMEM_Device": 154, "Uniconn": 148},
        "Jacobi2D": {"MPI": 162, "GPUCCL": 184, "GPUSHMEM_Host": 173, "GPUSHMEM_Device": 233, "Uniconn": 246},
        "CG": {"MPI": 773, "GPUCCL": 775, "GPUSHMEM_Host": 818, "GPUSHMEM_Device": 810, "Uniconn": 842},
    }
    cols = ["MPI", "GPUCCL", "GPUSHMEM_Host", "GPUSHMEM_Device", "Uniconn"]
    out = ["| experiment | " + " | ".join(cols) + " |",
           "|---|" + "---|" * len(cols)]
    for exp, row in d.items():
        cells = []
        for c in cols:
            got = row.get(c)
            pap = paper[exp].get(c)
            cells.append("N/A" if got is None else f"{got} ({pap})")
        out.append(f"| {exp} | " + " | ".join(cells) + " |")
    out.append("")
    out.append("Measured SLOC (paper's C++ SLOC in parentheses). Python is terser, "
               "so absolute counts differ; the paper's qualitative claim holds: one "
               "Uniconn implementation costs about as much as a single native "
               "variant while replacing all of them (and covering host+device APIs).")
    return "\n".join(out) + "\n"


def attribution_section(d):
    if d is None:
        return "*(run bench_obs_attribution first)*\n"
    out = ["| variant | compute | comm | sync | idle | critical path |",
           "|---|---|---|---|---|---|"]
    for variant in sorted(d):
        row = d[variant]
        s = row["shares_pct"]
        out.append(
            f"| {variant} | {s['compute']:.1f}% | {s['comm']:.1f}% | "
            f"{s['sync']:.1f}% | {s['idle']:.1f}% | {row['critical_path_pct']:.1f}% |"
        )
    out.append("")
    out.append("Per-rank makespan shares from the span-level observability run "
               "(`repro report`, docs/OBSERVABILITY.md), averaged over ranks; "
               "'critical path' is the fraction of the makespan covered by the "
               "extracted cross-rank dependency chain. Idle includes one-time "
               "bootstrap (dominant for GPUCCL at smoke scale) and any span-free "
               "native-library time, so native variants attribute less than "
               "Uniconn ones — the comparison column is Uniconn's comm+sync "
               "share, i.e. what the portability layer actually spends.")
    return "\n".join(out) + "\n"


def _fmt_size(n):
    if n >= 1 << 20:
        return f"{n >> 20}MiB"
    if n >= 1 << 10:
        return f"{n >> 10}KiB"
    return f"{n}B"


def coll_section():
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.coll import CollTuner

    out = ["| machine | collective | selection (gpuccl, 64 GPUs) |",
           "|---|---|---|"]
    for machine in ("perlmutter", "lumi", "marenostrum5"):
        tuner = CollTuner(machine, 64)
        table = tuner.build_table(kinds=("all_reduce", "all_gather"))
        sig = tuner.topo.signature()
        for kind in ("all_reduce", "all_gather"):
            bands = table.entries[sig]["gpuccl"][kind]
            parts = []
            for ceiling, algo, protocol, channels in bands:
                sel = str(algo)
                if protocol is not None:
                    sel += f"+{protocol}"
                if channels != 1:
                    sel += f"/{channels}"
                parts.append(f"{sel} <{_fmt_size(ceiling)}"
                             if ceiling is not None else sel)
            out.append(f"| {machine} | {kind} | {' → '.join(parts)} |")
    out.append("")
    out.append("Per-size algorithm selections of the `repro.coll` cost-model "
               "tuner (docs/COLLECTIVES.md): latency-bound schedules "
               "(recursive doubling / binomial tree / hierarchical) win small "
               "messages, the bandwidth-optimal chunked ring wins large "
               "AllReduces on every preset — the same ring-vs-tree trade "
               "NCCL's tuner encodes. `python benchmarks/bench_coll.py` "
               "measures the end-to-end effect against BENCH_coll.json "
               "(tuned AllReduce at 64 GPUs is >13x faster than the default "
               "ring at 64B on the Perlmutter model and within 2% of it at "
               "16MiB, where the ring is already the algorithm and only its "
               "wire protocol and channel count differ).")
    return "\n".join(out) + "\n"


def proto_section():
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.coll import CollTuner

    probes = (64, 4096, 1 << 20, 32 << 20)
    out = ["| machine | bytes | selection (gpuccl all_reduce, 8 GPUs) |",
           "|---|---|---|"]
    crossed = 0
    for machine in ("perlmutter", "lumi", "marenostrum5"):
        tuner = CollTuner(machine, 8)
        prots = []
        for nbytes in probes:
            best, _ = tuner.best("gpuccl", "all_reduce", nbytes)
            prots.append(best.protocol)
            out.append(f"| {machine} | {_fmt_size(nbytes)} | {best.describe()} |")
        if prots[0] == "LL" and prots[-1] == "Simple":
            crossed += 1
    assert crossed >= 2, "LL->Simple protocol crossover lost on the presets"
    out.append("")
    out.append("Per-protocol wire pricing (docs/COLLECTIVES.md, \"Wire "
               "protocols and channels\"): the rendezvous-free LL protocol "
               "wins small messages despite its halved effective bandwidth, "
               "LL128 takes the middle sizes on high-bandwidth intra-node "
               "fabrics, and bandwidth-optimal Simple (with multiple "
               "channels) wins large transfers — NCCL's LL -> LL128 -> "
               "Simple ladder, reproduced by the cost model on every "
               "machine preset. The `coll_protocol_*` rows of "
               "BENCH_coll.json gate the end-to-end effect: the tuned "
               "small-message AllReduce is >=1.5x faster in virtual time "
               "than a Simple-only configuration.")
    return "\n".join(out) + "\n"


TEMPLATE = """# EXPERIMENTS — paper vs. measured

Generated by `python -m benchmarks.generate_experiments_md` on {today}
from `benchmarks/results/*.json` (produced by `pytest benchmarks/
--benchmark-only`).

All timings are **virtual-clock** measurements on the simulated cluster
(see DESIGN.md section 2 for the substitution rationale). Absolute numbers
are therefore model outputs; the reproduction targets are the paper's
*shapes*: orderings, crossovers, and overhead bands. Every claim below is
also enforced programmatically by the corresponding bench's shape checks.

## Fig. 2 — motivation: no single library wins

Paper: latency/bandwidth of MPI vs NCCL/RCCL vs device-initiated NVSHMEM,
intra/inter-node, Perlmutter & LUMI; winners flip with message size,
locality, and machine.

{fig2}

## Fig. 3 — intra-node native vs Uniconn

Paper: host-API differences at most ~7% on average (MPI worst, due to the
blocking/non-blocking decision logic and GPU-stream queries), GPUCCL within
1%, device API within 0.08%.

{fig3}

## Fig. 4 — inter-node native vs Uniconn

Paper: at most ~3% average difference inter-node.

{fig4}

## Fig. 5 — Jacobi 2D, 4-64 GPUs, three machines

{fig5}

## Fig. 6 — CG on 8 GPUs, Serena/Queen matrices

Matrices are synthetic structural analogues of SuiteSparse Serena
(~33 nnz/row) and Queen_4147 (~80 nnz/row), scaled down (DESIGN.md).

{fig6}

## Table I — machines

{table1}

## Table II — SLOC

{table2}

## Overhead attribution (beyond the paper)

Where each Jacobi variant's time goes (4 GPUs, Perlmutter model),
from the `repro.obs` breakdown rather than end-to-end totals.

{attribution}

## Ablations (beyond the paper)

{ablations}

## Collective algorithm crossovers (beyond the paper)

{coll}

## Wire-protocol crossovers (beyond the paper)

{proto}

## Host-cost logbook (beyond the paper)

The hand-written host-time measurements (deferred charges, one Coordinator
per backend, bounded sanitizer clocks, the cost of a submit, the
collector's share, the last two-scheduler reading) live in
[docs/LOGBOOK.md](docs/LOGBOOK.md): this file is generated and rewritten
whole, that one is not.


## Known deviations

- Absolute latencies/bandwidths come from a calibrated model, not hardware;
  only relative behaviour is claimed.
- The paper's MPI-Uniconn *variability* across message sizes (irregular
  spikes) appears here as a smooth few-percent overhead: the simulated
  stream query has a fixed cost, while the real one interferes with MPI's
  progress engine nondeterministically.
- Fig. 6's ~3% GPUSHMEM-device slowdown on Serena does not reproduce
  (we measure ~0%): the paper attributes no mechanism to it, and the
  simulator has no occupancy/register-pressure effects.
- Problem sizes are scaled down from the paper's (`benchmarks/_common.py`);
  the overheads and orderings claimed are relative.
"""


def ablations_section():
    out = []
    g = load("ablation_grouping")
    if g:
        s64 = g["64"]["speedup"] if "64" in g else g[64]["speedup"]
        out.append(f"- **Operation grouping** (CommStart/End -> group fusion): "
                   f"{s64:.1f}x faster for 64 small messages.")
    e = load("ablation_eager_threshold")
    if e:
        out.append("- **Eager/rendezvous threshold**: the latency step moves with "
                   "the configured threshold (see results/ablation_eager_threshold.json).")
    t = load("ablation_thread_group")
    if t:
        out.append(f"- **ThreadGroup granularity** (256KiB device put): "
                   f"BLOCK {t['block']['GBps']:.1f} / WARP {t['warp']['GBps']:.1f} / "
                   f"THREAD {t['thread']['GBps']:.1f} GB/s.")
    r = load("ablation_mpi_rma")
    if r:
        two = r["two-sided (send/recv)"]["1048576"]
        one = r["one-sided (RMA put+signal)"]["1048576"]
        out.append(f"- **One-sided MPI** (§V-A future work): 1MiB Post "
                   f"{float(one) * 1e6:.1f}us vs two-sided {float(two) * 1e6:.1f}us "
                   f"(no rendezvous round trip).")
    d = load("ablation_decomposition")
    if d and "projection" in d:
        out.append(f"- **1D vs 2D decomposition**: 1D wins the latency regime "
                   f"(fewer messages); in the bandwidth regime 2D's perimeter halos "
                   f"win {d['projection']['t_1d_us'] / d['projection']['t_2d_us']:.1f}x "
                   f"at p=64.")
    gd = load("ablation_gpudirect_collectives")
    if gd:
        gap = gd["mpi_staged_s"] / gd["gpuccl_s"]
        gap2 = gd["mpi_gpudirect_s"] / gd["gpuccl_s"]
        out.append(f"- **Fig. 6 mechanism test**: giving MPI collectives a "
                   f"hypothetical GPUDirect path shrinks the CG gap to GPUCCL "
                   f"from {gap:.1f}x to {gap2:.1f}x — host staging IS the cause "
                   f"in this model.")
    return "\n".join(out) + "\n" if out else "*(run bench_ablations first)*\n"


def main(out: str = OUT) -> None:
    text = TEMPLATE.format(
        ablations=ablations_section(),
        attribution=attribution_section(load("obs_attribution")),
        coll=coll_section(),
        proto=proto_section(),
        today=date.today().isoformat(),
        fig2=fig2_section(load("fig2_motivation")),
        fig3=fig34_section(load("fig3_intranode"),
                           "Paper band: <=7% average intra-node; measured means are within it."),
        fig4=fig34_section(load("fig4_internode"),
                           "Paper band: <=3% average inter-node; measured means are within it."),
        fig5=fig5_section(load("fig5_jacobi")),
        fig6=fig6_section(load("fig6_cg")),
        table1=table1_section(load("table1_machines")),
        table2=table2_section(load("table2_sloc")),
    )
    with open(out, "w") as fh:
        fh.write(text)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
