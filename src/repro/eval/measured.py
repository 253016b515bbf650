"""Measured-power evaluation: Table 4 / Figure 6 from simulation.

Assembles the measured side of the evaluation: applications rebuilt
with simulated communication (:mod:`repro.workloads.measured`),
evaluated through the Section 4.1 model, energy-audited with a
:class:`~repro.power.measured.EnergyLedger`, and exported as the
``BENCH_power.json`` artifact recording measured-vs-analytical deltas.

Documented tolerances
---------------------
Measured interconnect power is expected *below* the calibrated
numbers, inside the per-application ratio windows of ``TOLERANCES``:

* DDC: measured/analytical interconnect in [0.15, 1.5].  The mixer
  and CIC integrator kernels land within ~2x of their calibrated
  words/cycle; the CIC comb's gather/scatter kernel counts ~50x
  fewer words than the calibrated 10.59 w/c - like the ACS row, the
  calibrated comb profile back-solves the whole Table 4 residual
  into bus traffic, so measuring it pulls the application ratio just
  below the previous floor.
* 802.11a (+AES): measured/analytical interconnect in [0.05, 1.5].
  The calibrated ACS profile (13.56 words/cycle) back-solves the
  whole Table 4 residual into bus traffic, while counting real
  transfers in the butterfly kernel yields ~6x fewer words - and a
  measured span of ~0.4 because butterfly partners are neighbours on
  the segmented bus (Section 2.3's locality claim, quantified).

Per-domain energy is conserved exactly: the ledger total equals
application power x simulated time to float tolerance.
"""

from __future__ import annotations

from repro.power.measured import EnergyLedger, verify_conservation
from repro.power.model import PowerModel, savings_percent
from repro.workloads.configs import all_applications
from repro.workloads.measured import MeasuredApplication, measured_application

#: (low, high) acceptable measured/analytical interconnect ratios.
TOLERANCES = {
    "DDC": (0.15, 1.5),
    "802.11a": (0.05, 1.5),
    "802.11a + AES": (0.05, 1.5),
}

#: Conservation tolerance for the energy ledger (relative).
CONSERVATION_TOLERANCE = 1e-9


class MeasuredEvaluation:
    """One application evaluated analytically and from measurement."""

    def __init__(
        self,
        app: MeasuredApplication,
        model: PowerModel | None = None,
    ) -> None:
        self.app = app
        self.model = model or PowerModel()
        config = app.config
        self.analytical = self.model.application_power(
            config.name, config.specs
        )
        self.measured = self.model.application_power(
            config.name, app.specs
        )
        self.measured_single = self.model.application_power(
            config.name, app.specs, single_voltage=True
        )
        # Energy audit: charge each domain over the longest measured
        # kernel window (1 us when nothing is measured), splitting the
        # dynamic term by each domain's measured busy fraction.
        activities = app.activities
        self.time_us = max(
            (a.time_us for a in activities.values()), default=1.0
        ) or 1.0
        self.ledger = EnergyLedger.from_application(
            self.measured, self.time_us, activities
        )
        self.conservation_error = verify_conservation(
            self.ledger, self.measured, self.time_us,
            tolerance=CONSERVATION_TOLERANCE,
        )

    @property
    def name(self) -> str:
        """Application display name."""
        return self.app.name

    @property
    def interconnect_ratio(self) -> float | None:
        """Measured / analytical application interconnect power."""
        analytic = sum(c.bus_mw for c in self.analytical.components)
        if analytic == 0:
            return None
        measured = sum(c.bus_mw for c in self.measured.components)
        return measured / analytic

    @property
    def within_tolerance(self) -> bool | None:
        """Whether the interconnect ratio sits in its documented
        window (None when no window is documented)."""
        window = TOLERANCES.get(self.name)
        ratio = self.interconnect_ratio
        if window is None or ratio is None:
            return None
        low, high = window
        return low <= ratio <= high


def evaluate_all(
    keys=None,
    processes: int | None = 1,
    model: PowerModel | None = None,
) -> dict:
    """{application key: MeasuredEvaluation} for every application."""
    keys = list(keys) if keys is not None else list(all_applications())
    model = model or PowerModel()
    return {
        key: MeasuredEvaluation(
            measured_application(key, processes=processes), model
        )
        for key in keys
    }


def bench_payload(evaluations: dict | None = None) -> dict:
    """The ``BENCH_power.json`` content: deltas, ratios, conservation."""
    evaluations = evaluations or evaluate_all()
    applications = {}
    for key, evaluation in evaluations.items():
        components = []
        for component, analytic_power, measured_power in zip(
            evaluation.app.components,
            evaluation.analytical.components,
            evaluation.measured.components,
        ):
            components.append({
                "name": component.name,
                "source": "measured" if component.measured
                          else "analytical",
                "kernel": component.kernel,
                "analytical_mw": round(analytic_power.total_mw, 3),
                "measured_mw": round(measured_power.total_mw, 3),
                "delta_mw": round(
                    measured_power.total_mw - analytic_power.total_mw, 3
                ),
                "analytical_bus_mw": round(analytic_power.bus_mw, 3),
                "measured_bus_mw": round(measured_power.bus_mw, 3),
                "analytical_words_per_cycle":
                    component.analytical.comm.words_per_cycle,
                "measured_words_per_cycle":
                    component.spec.comm.words_per_cycle,
                "measured_span_fraction":
                    component.spec.comm.span_fraction,
            })
        window = TOLERANCES.get(evaluation.name)
        applications[key] = {
            "name": evaluation.name,
            "components": components,
            "analytical_total_mw": round(
                evaluation.analytical.total_mw, 3
            ),
            "measured_total_mw": round(evaluation.measured.total_mw, 3),
            "measured_savings_percent": round(savings_percent(
                evaluation.measured.total_mw,
                evaluation.measured_single.total_mw,
            ), 2),
            "interconnect_ratio": evaluation.interconnect_ratio,
            "tolerance_window": list(window) if window else None,
            "within_tolerance": evaluation.within_tolerance,
            "energy": {
                "time_us": evaluation.time_us,
                "ledger_total_nj": evaluation.ledger.total_nj,
                "power_times_time_nj":
                    evaluation.measured.total_mw * evaluation.time_us,
                "idle_nj": evaluation.ledger.idle_nj,
                "conservation_relative_error":
                    evaluation.conservation_error,
            },
        }
    return {
        "artifact": "BENCH_power",
        "description": "Measured-vs-analytical Table 4 power deltas "
                       "driven by simulated activity via run_many",
        "conservation_tolerance": CONSERVATION_TOLERANCE,
        "applications": applications,
    }

