"""Blackfin-like instruction set for Synchroscalar tiles (Section 2.3).

The paper bases tiles on the ADI/Intel Blackfin DSP ISA [20] with
control hoisted into the per-column SIMD controller.  This subpackage
defines the register files, the instruction set (compute instructions
executed by tiles, control instructions executed by the controller),
and a two-pass assembler.
"""
