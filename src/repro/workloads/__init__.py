"""Workload models: Table 4 configurations, parallelization studies,
and the Table 3 comparator registry.

``configs`` carries the paper's exact application mappings;
``parallel`` generalizes them across tile counts for the Figure 7/9/10
studies; ``explorer`` implements the Viterbi bus-width trade-off of
Figure 8 and the leakage sweeps; ``baselines`` holds the published
platform figures of Table 3.
"""
