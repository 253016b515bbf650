"""Technology substrate: process parameters, V-f curve, leakage, wires, area.

This subpackage stands in for the paper's SPICE + Berkeley Predictive
Technology Model experiments (Section 4, Table 1), its Synopsys synthesis
results (Table 2), the "Future of Wires" interconnect data (Section 4.3),
and the analytic leakage model (Section 4.4).
"""
