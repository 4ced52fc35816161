"""Generate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Run as:  python -m repro.bench.experiments [output-path]
"""

from __future__ import annotations

import sys

from repro.bench import ablations, figure3, figure4, figure5, security, table2
from repro.bench.harness import bench_scale
from repro.workloads.calibrate import calibrate

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro.bench.experiments``. The figure, table,
security and ablation wrappers in ``benchmarks/`` print the same tables
one by one under ``pytest benchmarks/ --benchmark-only``, which skips
the engine and lifecycle checks kept there. All measurements
come from the discrete-event simulation described in DESIGN.md; times
are virtual nanoseconds, and "normalized execution time" is the
MVEE-run wall time divided by the native wall time of the same
reconstructed workload, as in the paper.

**Reading guide.** We reproduce *shapes*: which configuration wins, by
roughly what factor, and where the relaxation levels stop mattering.
Absolute agreement with the paper is expected only where the profile
derivation pins it (Figures 3-4); deviations and their causes are noted
inline.

Calibrated per-call costs on the simulated Xeon E5-2660 (2 replicas):
{calibration}

"""

FOOTNOTES = """\

## Known deviations from the paper

1. **Measurement-noise inversions are not reproduced.** A few paper
   bars show IP-MON *above* GHUMVEE-only (ferret, fluidanimate, x264,
   barnes, lu_ncb at 0.94x...). Those are below the noise floor of the
   original experiments; our derivation clamps them, so we report the
   monotone envelope instead.
2. **dedup's IP-MON bar runs ~0.3 high.** The derived profile keeps
   dedup monitor-saturated even at NONSOCKET_RW (its residual always-
   monitored traffic is large); the simulator charges slightly more for
   mixed monitored/unmonitored interleavings than the analytic model.
3. **Table 2's GHUMVEE column overshoots** (hundreds of percent vs the
   paper's 8-194%): our synthetic clients fully saturate the servers on
   the 0.1 ms link, so the monitored-call serialization is maximally
   exposed. The orderings the table argues from — ReMon ~ VARAN-class
   efficiency, both far below CP-only monitoring, with wrk-driven
   servers hit hardest — all hold.
4. **VARAN's published numbers** were measured on real hardware with
   its binary-rewriting front end; our VARAN-style baseline shares the
   simulator's replication cost model, so its absolute overheads are
   smaller, but it stays in the same near-native class as ReMon.
5. The **network-loopback** GHUMVEE bar measures ~22.8x vs the paper's
   25.5x; the derived syscall rate needed to reach 25x under our
   calibrated ptrace costs is at the edge of what the lane-serialized
   monitor model produces. The cliff structure across SOCKET_RO /
   SOCKET_RW is faithful.
"""


def build(report=print) -> str:
    sections = [HEADER.format(calibration=repr(calibrate()))]

    report("figure 3 (parsec)...")
    sections.append("## Figure 3 — PARSEC 2.1 & SPLASH-2x\n")
    sections.append("```\n" + figure3.render(figure3.generate("parsec")) + "```\n")
    report("figure 3 (splash)...")
    sections.append("```\n" + figure3.render(figure3.generate("splash")) + "```\n")
    sections.append(
        "Paper headline: PARSEC 21.9% -> 11.2%, SPLASH-2x 29.2% -> 10.4% "
        "(geomean overhead, GHUMVEE-only -> ReMon). In-text stress cases: "
        "dedup 252.9% -> 69.4%, water_spatial 320% -> 20.7%.\n"
    )

    report("figure 4 (phoronix)...")
    sections.append("## Figure 4 — Phoronix relaxation-level sweep\n")
    sections.append("```\n" + figure4.render(figure4.generate()) + "```\n")
    sections.append(
        "Paper headline: Phoronix geomean 146.4% -> 41.2%; network-loopback "
        "2446% -> 200%.\n"
    )

    report("figure 5 (servers, both scenarios)...")
    sections.append("## Figure 5 — server benchmarks, 2-7 replicas\n")
    for scenario in ("gigabit-0.1ms", "realistic-2ms"):
        sections.append(
            "```\n" + figure5.render(figure5.generate(scenario)) + "```\n"
        )
    sections.append(
        "Paper: at the realistic 2 ms scenario ReMon runs servers at "
        "near-native speed for every replica count; only the unlikely "
        "0.1 ms scenario exposes measurable overhead, worst for the "
        "connection-per-request (ab) clients.\n"
    )

    report("table 2 (comparison)...")
    sections.append("## Table 2 — comparison with other MVEEs\n")
    sections.append("```\n" + table2.render(table2.generate()) + "```\n")
    sections.append(
        "Paper headline: ReMon's server overheads are 0-3.5% at the 5 ms "
        "setup, comparable to reliability-oriented MVEEs and far below "
        "security-oriented CP designs.\n"
    )

    report("security analysis...")
    sections.append("## §4 — security analysis\n")
    sections.append("```\n" + security.render(security.generate()) + "```\n")

    report("ablations...")
    sections.append("## Ablations (beyond the paper's tables)\n")
    sections.append("```\n" + ablations.render_all() + "```\n")

    sections.append(FOOTNOTES)
    sections.append(
        "\n*Generated at REPRO_BENCH_SCALE=%.2f.*\n" % bench_scale()
    )
    return "\n".join(sections)


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    text = build()
    with open(path, "w") as fh:
        fh.write(text)
    print("wrote %s (%d bytes)" % (path, len(text)))


if __name__ == "__main__":
    main()
