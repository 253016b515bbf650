"""MPEG-4 encoding of a synthetic QCIF sequence at 30 f/s.

Encodes a panning scene (I and P frames through the ME -> DCT ->
Quant -> IQ -> IDCT loop), reports per-frame quality and coded
coefficients, and prices both the QCIF and CIF encoders at their
Table 4 operating points.

    python examples/mpeg4_encoder.py
"""

import numpy as np

from repro.apps.mpeg4.encoder import Mpeg4Encoder, QCIF_SHAPE
from repro.apps.mpeg4.frames import synthetic_sequence
from repro.power.model import PowerModel
from repro.workloads.configs import application


def main() -> None:
    frames = synthetic_sequence(
        8, shape=QCIF_SHAPE, motion_per_frame=(1, 2), seed=2
    )
    encoder = Mpeg4Encoder(shape=QCIF_SHAPE, qp=6, gop=6)
    print(f"Encoding {len(frames)} QCIF frames "
          f"({QCIF_SHAPE[1]}x{QCIF_SHAPE[0]}) at QP=6, GOP=6:\n")
    print(f"{'frame':>5} {'type':>5} {'PSNR dB':>8} {'coefs':>7} "
          f"{'median MV':>10}")
    for result in encoder.encode_sequence(frames):
        vectors = [
            v for v in result.motion_vectors.values()
            if (v.dy, v.dx) != (0, 0) or v.sad > 0
        ]
        if vectors:
            mv = (int(np.median([v.dy for v in vectors])),
                  int(np.median([v.dx for v in vectors])))
            mv_text = f"({mv[0]:+d},{mv[1]:+d})"
        else:
            mv_text = "-"
        print(f"{result.index:>5} {result.frame_type:>5} "
              f"{result.psnr_db:8.1f} {result.coded_coefficients:>7} "
              f"{mv_text:>10}")
    print("\nP frames ride the (1, 2) pan: few coefficients, stable "
          "quality.")

    model = PowerModel()
    for key in ("mpeg4_qcif", "mpeg4_cif"):
        config = application(key)
        power = model.application_power(config.name, config.specs)
        print(f"\n{config.name} at 30 f/s: {power.total_mw:.1f} mW")
        for component in power.components:
            print(f"  {component.name:20s} {component.n_tiles:2d} tiles "
                  f"@ {component.frequency_mhz:3.0f} MHz / "
                  f"{component.voltage_v} V -> "
                  f"{component.total_mw:6.1f} mW")


if __name__ == "__main__":
    main()
