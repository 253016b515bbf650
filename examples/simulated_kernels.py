"""Hand-written assembly kernels on the cycle-level simulator.

Runs every kernel in repro.kernels - the reproduction's stand-ins for
the paper's hand-optimized inner loops - verifies each against its
functional oracle, and prints the measured quantities the Section 4.1
methodology consumes (cycles/sample and bus words/cycle), ending with
the frequency each kernel would need at a Table 4-style rate.

    python examples/simulated_kernels.py
"""

from repro.kernels.base import run_kernel
from repro.kernels.cic import build_cic_chain_kernel
from repro.kernels.dct import build_dct_kernel
from repro.kernels.fir import build_fir_kernel
from repro.kernels.mixer import build_mixer_kernel
from repro.kernels.viterbi_acs import build_acs_kernel
from repro.power.model import ComponentSpec, PowerModel
from repro.workloads.measured import comm_profile_from_run


def main() -> None:
    builders = (
        ("block FIR (CFIR/PFIR inner loop)", build_fir_kernel),
        ("complex mixer (DDC stage 1)", build_mixer_kernel),
        ("CIC integrator chain (4 tiles)", build_cic_chain_kernel),
        ("Viterbi ACS butterfly", build_acs_kernel),
        ("8-point DCT, Q14", build_dct_kernel),
    )
    print(f"{'kernel':34s} {'issued':>7} {'cyc/smp':>8} "
          f"{'bus w/cyc':>10}  oracle")
    runs = {}
    for label, builder in builders:
        kernel = builder()
        run = run_kernel(kernel)  # raises if the oracle disagrees
        runs[kernel.name] = run
        print(f"{label:34s} {run.issued:7d} "
              f"{run.cycles_per_sample:8.2f} "
              f"{run.bus_words_per_cycle:10.3f}  passed")

    print("\nSection 4.1 step 7, from measurement:")
    mixer = runs["complex-mixer"]
    frequency = mixer.frequency_for_rate(sample_rate_msps=8.0)
    print(f"  the mixer kernel at 8 MS/s per tile needs "
          f"{frequency:.0f} MHz")
    print(f"  (Table 4's mixer column: 120 MHz for the same per-tile "
          f"rate)")

    print("\nMeasured communication plugged into the power model:")
    chain = runs["cic-integrator-chain"]
    profile = comm_profile_from_run(chain, span_fraction=0.6)
    model = PowerModel()
    power = model.component_power(ComponentSpec(
        "measured CIC chain", n_tiles=4, frequency_mhz=200.0,
        comm=profile,
    ))
    print(f"  4-tile chain at 200 MHz / {power.voltage_v} V: "
          f"{power.total_mw:.1f} mW "
          f"(bus {power.bus_mw:.1f} mW from "
          f"{profile.words_per_cycle:.2f} words/cycle)")


if __name__ == "__main__":
    main()
