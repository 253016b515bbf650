"""Digital Down Conversion (paper Section 3).

The DDC converts a received IF signal to baseband at GSM rates (up to
64 MS/s): a Numerically Controlled Oscillator and digital mixer,
a Cascaded-Integrator-Comb decimator, then a two-stage programmable
filter - a 21-tap CIC-compensating FIR (CFIR) and a 63-tap
programmable FIR (PFIR), mirroring the Graychip GC4014 structure the
paper compares against.
"""
