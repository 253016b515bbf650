"""Synchronous dataflow substrate (paper Section 2.1).

The paper's applications fit the SDF model of Lee & Messerschmitt
[21]: actors produce/consume fixed token counts per firing, which
makes repetition vectors, bounded-memory verification, deadlock
detection, and fully static schedules decidable.  This subpackage
provides those analyses plus the mapping step from SDF actors onto
Synchroscalar columns (frequencies, voltages, rate matching).
"""
