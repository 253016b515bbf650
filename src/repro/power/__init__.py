"""Power methodology (paper Section 4.1) - the evaluation core.

Implements the three-term model

    P_total = P_tile + P_interconnect + P_leakage

with per-column frequency/voltage domains, the U normalized-power
parameter derivation (Section 4.2), switched-capacitance bus power
(Section 4.3), and single- versus multiple-voltage comparisons
(Section 5.1, Table 4, Figure 6).
"""
