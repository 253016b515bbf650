"""GSM digital down conversion at 64 MS/s, end to end.

Pushes a modulated IF carrier through the full DDC (NCO/mixer, CIC,
CFIR, PFIR), verifies the baseband output spectrally, and reproduces
the application's Table 4 power row.

    python examples/ddc_pipeline.py
"""

import numpy as np

from repro.apps.ddc.pipeline import (
    DigitalDownConverter,
    ddc_sdf_graph,
    gsm_configuration,
)
from repro.power.model import PowerModel
from repro.sdf.mapping import ColumnAssignment, SdfMapper
from repro.workloads.configs import application


def main() -> None:
    config = gsm_configuration()
    print(f"DDC: {config.sample_rate_hz / 1e6:.0f} MS/s in, "
          f"{config.output_rate_hz / 1e6:.1f} MS/s baseband out "
          f"(decimation {config.total_decimation})")

    # A narrowband signal 75 kHz above the 16 MHz carrier.
    ddc = DigitalDownConverter(config)
    n = np.arange(64 * 64 * 6)
    message_hz = 75.0e3
    carrier = np.cos(
        2 * np.pi * (config.mix_frequency_hz + message_hz)
        / config.sample_rate_hz * n
    )
    baseband = ddc.process(carrier)[32:]
    spectrum = np.abs(np.fft.fft(baseband))
    frequencies = np.fft.fftfreq(len(baseband),
                                 d=1.0 / config.output_rate_hz)
    peak = frequencies[int(np.argmax(spectrum))]
    print(f"recovered baseband tone at {peak / 1e3:+.1f} kHz "
          f"(sent {message_hz / 1e3:+.1f} kHz)")

    # Map the five stages the way Table 4 does and price them.
    app = SdfMapper().map(ddc_sdf_graph(config), [
        ColumnAssignment("Digital Mixer", ("mixer",), 8),
        ColumnAssignment("CIC Integrator", ("integrator",), 8),
        ColumnAssignment("CIC Comb", ("comb",), 2),
        ColumnAssignment("CFIR", ("cfir",), 16),
        ColumnAssignment("PFIR", ("pfir",), 16),
    ], iteration_rate_msps=1.0)
    print("\nMapping (from the SDF graph):")
    for component in app.components:
        print(f"  {component.name:15s} {component.n_tiles:2d} tiles @ "
              f"{component.frequency_mhz:5.0f} MHz / "
              f"{component.voltage_v} V")

    table4 = application("ddc")
    power = PowerModel().application_power(table4.name, table4.specs)
    print(f"\nTable 4 power: {power.total_mw:.1f} mW "
          f"(paper rows sum to "
          f"{sum(table4.paper_component_mw.values()):.1f} mW)")
    print(f"  = {power.total_mw * 1e6 / 64e6:.1f} nW/sample "
          f"(paper Section 5.5: 38.0)")


if __name__ == "__main__":
    main()
