"""Synchroscalar reproduction: a multiple clock domain, power-aware,
tile-based embedded processor (Oliver et al., ISCA 2004).

The package is organized the way the paper is:

* :mod:`repro.tech` - technology substrate (Table 1, Figure 5,
  Sections 4.2-4.4): V-f curve, leakage, wires, area.
* :mod:`repro.power` - the Section 4.1 power methodology.
* :mod:`repro.isa` / :mod:`repro.arch` / :mod:`repro.sim` - the
  Blackfin-like ISA, the machine model (SIMD columns, DOUs, segmented
  buses, clock/voltage domains), and the cycle-level simulator.
* :mod:`repro.sdf` - synchronous dataflow scheduling and mapping.
* :mod:`repro.apps` - DDC, stereo vision, 802.11a, MPEG-4, and AES.
* :mod:`repro.workloads` - Table 4 configurations and the
  parallelization / bus-width / leakage studies.
* :mod:`repro.eval` - drivers that regenerate every table and figure.

Quick start::

    from repro.power.model import PowerModel
    from repro.workloads.configs import application

    ddc = application("ddc")
    power = PowerModel().application_power(ddc.name, ddc.specs)
    print(f"{power.total_mw:.0f} mW at 64 MS/s")
"""
