"""The paper's Table 4 application mappings, component by component.

Tile counts and frequencies are copied from Table 4; voltages are NOT
copied - they are re-derived through the V-f curve, which reproduces
every paper rail.  Communication profiles (words per cycle on the
buses) are calibrated so each component's total power lands on its
Table 4 row under the Section 4.1 model; the calibration residuals
and the paper's own internal inconsistencies are recorded in
EXPERIMENTS.md.

Each component's comment states the algorithmic origin of its traffic:
e.g. the Viterbi ACS exchanges path metrics across its whole 64-state
trellis every step ("the most demanding communications requirements of
any of the individual algorithms", Section 5.3), while stereo's PFE
and SVD communicate negligibly (their Table 4 rows are pure
compute + leakage, which our model matches to within 0.5%).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.power.interconnect import CommProfile
from repro.power.model import ComponentSpec


@dataclass(frozen=True)
class ApplicationConfig:
    """One Table 4 application: specs plus the paper's reported rows.

    ``kernels`` names, per component, the cycle-level kernel whose
    measured activity stands in for the calibrated communication
    profile (see :mod:`repro.workloads.measured`); components without
    an entry stay analytical - their traffic pattern (e.g. the CIC
    comb's cross-column gather/scatter) has no single-column kernel
    equivalent yet.
    """

    name: str
    rate_label: str
    samples_per_second: float
    components: tuple
    paper_component_mw: dict
    paper_single_voltage_mw: dict
    paper_total_mw: float
    paper_area_mm2: float | None = None
    notes: tuple = ()
    kernels: dict = field(default_factory=dict)

    @property
    def specs(self) -> list:
        """Component specs for :class:`repro.power.model.PowerModel`."""
        return list(self.components)

    @property
    def n_tiles(self) -> int:
        """Total powered tiles."""
        return sum(c.n_tiles for c in self.components)

    @property
    def component_tile_counts(self) -> list:
        """Per-component tile counts (for the area model)."""
        return [c.n_tiles for c in self.components]


def ddc_config() -> ApplicationConfig:
    """DDC at 64 MS/s (GSM): Table 4's five-component mapping."""
    return ApplicationConfig(
        name="DDC",
        rate_label="64 MS/s",
        samples_per_second=64.0e6,
        components=(
            # Mixer streams each mixed sample to the integrator column:
            # ~1 word/cycle through roughly the full bus.
            ComponentSpec("Digital Mixer", 8, 120.0,
                          CommProfile(1.112)),
            # The integrator cascade passes partial sums between all
            # eight tiles every sample - the heaviest DDC traffic.
            ComponentSpec("CIC Integrator", 8, 200.0,
                          CommProfile(5.620)),
            # The comb receives the decimated stream and redistributes
            # it to both FIR columns (gather/scatter on its behalf).
            ComponentSpec("CIC Comb", 2, 40.0,
                          CommProfile(10.59)),
            # The FIRs keep coefficients and delay lines tile-local;
            # only tap partial sums cross tiles occasionally.
            ComponentSpec("CFIR", 16, 380.0, CommProfile(0.3174)),
            ComponentSpec("PFIR", 16, 370.0, CommProfile(0.006)),
        ),
        paper_component_mw={
            "Digital Mixer": 76.29,
            "CIC Integrator": 241.54,
            "CIC Comb": 18.86,
            "CFIR": 1071.22,
            "PFIR": 1031.75,
        },
        paper_single_voltage_mw={
            "Digital Mixer": 191.83,
            "CIC Integrator": 403.58,
            "CIC Comb": 18.86,
            "CFIR": 1071.22,
            "PFIR": 1031.75,
        },
        paper_total_mw=2427.23,
        paper_area_mm2=139.88,
        notes=(
            "Paper's TOTAL (2427.23) is below the sum of its own rows "
            "(2439.66); we report the consistent sum.",
            "Paper's single-voltage column repeats the multi-voltage "
            "value for CIC Comb while reporting 66% savings; we "
            "recompute the single-voltage run at the 1.3 V app rail.",
        ),
        kernels={
            "Digital Mixer": "mixer-stream",
            "CIC Integrator": "cic-integrator-chain",
            "CIC Comb": "cic-comb-scatter",
            "CFIR": "fir-8tap",
            "PFIR": "fir-8tap",
        },
    )


def stereo_config() -> ApplicationConfig:
    """Stereo vision at 10 f/s, 256x256 (one sample = one frame)."""
    return ApplicationConfig(
        name="Stereo Vision",
        rate_label="10 f/s 256x256",
        samples_per_second=10.0,
        components=(
            # SVD runs whole on one tile: zero bus traffic (the model
            # then reproduces 114.27 mW within 0.5%).
            ComponentSpec("SVD", 1, 500.0, CommProfile(0.0)),
            # PFE tiles each own an image stripe; only stripe borders
            # are exchanged, negligible per cycle.
            ComponentSpec("PFE", 16, 310.0, CommProfile(0.0)),
        ),
        paper_component_mw={"SVD": 114.27, "PFE": 742.68},
        paper_single_voltage_mw={"SVD": 114.27, "PFE": 1151.55},
        paper_total_mw=857.40,
        paper_area_mm2=52.89,
    )


def _wlan_components() -> tuple:
    return (
        # FFT: butterfly operand exchange between its two tiles.
        ComponentSpec("FFT", 2, 90.0, CommProfile(0.7935)),
        # Demod/deinterleave: streams subcarrier words onward.
        ComponentSpec("De-mod/De-Interleave", 1, 60.0,
                      CommProfile(0.3977)),
        # ACS exchanges 64 path metrics across 4 columns every trellis
        # step - Section 5.3 calls this the most demanding traffic in
        # the suite, and it dominates Figure 8.
        ComponentSpec("Viterbi ACS", 16, 540.0, CommProfile(13.56)),
        # Traceback receives survivor decisions from the ACS columns.
        ComponentSpec("Viterbi Traceback", 1, 330.0,
                      CommProfile(0.3997)),
    )


def wlan_config() -> ApplicationConfig:
    """802.11a receive chain at 54 Mbps."""
    return ApplicationConfig(
        name="802.11a",
        rate_label="54 Mbps RX",
        samples_per_second=54.0e6,
        components=_wlan_components(),
        paper_component_mw={
            "FFT": 16.74,
            "De-mod/De-Interleave": 4.71,
            "Viterbi ACS": 3848.01,
            "Viterbi Traceback": 61.07,
        },
        paper_single_voltage_mw={
            "FFT": 79.60,
            "De-mod/De-Interleave": 28.45,
            "Viterbi ACS": 3848.01,
            "Viterbi Traceback": 83.22,
        },
        paper_total_mw=3930.53,
        paper_area_mm2=74.05,
        kernels={"Viterbi ACS": "viterbi-acs-butterfly"},
    )


def wlan_aes_config() -> ApplicationConfig:
    """802.11a + AES message authentication (Section 5.1)."""
    aes = ComponentSpec("AES", 16, 110.0, CommProfile(6.363))
    return ApplicationConfig(
        name="802.11a + AES",
        rate_label="54 Mbps RX + MAC",
        samples_per_second=54.0e6,
        components=_wlan_components() + (aes,),
        paper_component_mw={
            "FFT": 14.80,
            "De-mod/De-Interleave": 4.71,
            "Viterbi ACS": 3848.01,
            "Viterbi Traceback": 61.07,
            "AES": 159.50,
        },
        paper_single_voltage_mw={
            "FFT": 49.36,
            "De-mod/De-Interleave": 28.45,
            "Viterbi ACS": 3848.01,
            "Viterbi Traceback": 83.22,
            "AES": 556.56,
        },
        paper_total_mw=2443.68,
        notes=(
            "Paper's +AES table lists FFT at 14.80 mW versus 16.74 mW "
            "in the standalone table for the identical 2-tile 90 MHz "
            "component; we use one FFT model for both.",
            "Paper's +AES TOTAL (2443.68) is inconsistent with its own "
            "rows (4088.09) - it appears to exclude the Viterbi ACS "
            "or reflect a different operating point; we report the "
            "component sum.",
        ),
        kernels={"Viterbi ACS": "viterbi-acs-butterfly"},
    )


def mpeg4_qcif_config() -> ApplicationConfig:
    """MPEG-4 QCIF encoding at 30 f/s."""
    return ApplicationConfig(
        name="MPEG4 QCIF",
        rate_label="QCIF @ 30 f/s",
        samples_per_second=30.0,
        components=(
            # ME tiles trade macroblock rows of the reference frame.
            ComponentSpec("Motion Estimation", 8, 70.0,
                          CommProfile(3.164)),
            ComponentSpec("DCT/Quant/IQ/IDCT", 2, 60.0,
                          CommProfile(0.0)),
        ),
        paper_component_mw={
            "Motion Estimation": 42.53,
            "DCT/Quant/IQ/IDCT": 4.71,
        },
        paper_single_voltage_mw={
            "Motion Estimation": 42.53,
            "DCT/Quant/IQ/IDCT": 4.71,
        },
        paper_total_mw=47.24,
        paper_area_mm2=32.32,
        notes=(
            "Paper lists the 2-tile 60 MHz DCT row at 4.71 mW, which "
            "equals its 1-tile demod row; the consistent model value "
            "for 2 tiles is 7.97 mW.",
        ),
        kernels={"DCT/Quant/IQ/IDCT": "dct-8point-q14"},
    )


def mpeg4_cif_config() -> ApplicationConfig:
    """MPEG-4 CIF encoding at 30 f/s."""
    return ApplicationConfig(
        name="MPEG4 CIF",
        rate_label="CIF @ 30 f/s",
        samples_per_second=30.0,
        components=(
            ComponentSpec("Motion Estimation", 8, 280.0,
                          CommProfile(3.195)),
            ComponentSpec("DCT/Quant/IQ/IDCT", 8, 60.0,
                          CommProfile(0.0)),
        ),
        paper_component_mw={
            "Motion Estimation": 351.21,
            "DCT/Quant/IQ/IDCT": 18.82,
        },
        paper_single_voltage_mw={
            "Motion Estimation": 351.21,
            "DCT/Quant/IQ/IDCT": 46.48,
        },
        paper_total_mw=370.03,
        paper_area_mm2=31.74,
        notes=(
            "Paper's CIF area (31.74 mm^2 for 16 tiles) is below its "
            "QCIF area (32.32 mm^2 for 10 tiles) - internally "
            "inconsistent; our area model reports the 16-tile value.",
            "Paper's 8-tile 60 MHz DCT row (18.82 mW) is below pure "
            "leakage+dynamic for 8 tiles (31.9 mW); recorded as a "
            "paper quirk.",
        ),
        kernels={"DCT/Quant/IQ/IDCT": "dct-8point-q14"},
    )


_FACTORIES = {
    "ddc": ddc_config,
    "stereo": stereo_config,
    "wlan": wlan_config,
    "wlan_aes": wlan_aes_config,
    "mpeg4_qcif": mpeg4_qcif_config,
    "mpeg4_cif": mpeg4_cif_config,
}


def application(key: str) -> ApplicationConfig:
    """Look up one application config by short key."""
    try:
        return _FACTORIES[key]()
    except KeyError:
        raise KeyError(
            f"unknown application {key!r}; valid: {sorted(_FACTORIES)}"
        ) from None


def all_applications() -> dict:
    """Every Table 4 application, keyed by short name."""
    return {key: factory() for key, factory in _FACTORIES.items()}
