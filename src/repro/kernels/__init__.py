"""Hand-written Synchroscalar assembly kernels (paper Section 4.5).

The paper compiles applications to assembly and hand-optimizes the
inner loops; these kernels are our equivalents, executed on the
cycle-level simulator to produce the cycles-per-sample and
communication measurements the Section 4.1 methodology consumes.

Each kernel bundles a column program, an (optionally compiled) DOU
schedule, tile memory images, and a correctness check against its
functional reference.
"""
