"""The Synchroscalar machine model (paper Section 2).

Columns of four Blackfin-like tiles share a SIMD controller (one
instruction stream per column), a Data Orchestration Unit driving the
segment switches of a 256-bit vertical bus, and a statically assigned
clock divider and supply voltage.  A single horizontal bus links the
columns; Zero-Overhead Rate-Matching counters insert nops to match
rationally related column rates.
"""
