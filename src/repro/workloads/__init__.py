"""Workload generation.

The paper's single-switch scheduling evaluation (Section 7.1) uses three
ClassBench access-control rule sets with overlap-induced dependency
constraints.  ClassBench itself needs seed parameter files we do not
have, so :mod:`repro.workloads.classbench` synthesises rule sets with the
same *shape statistics* the paper reports in Table 2: rule counts around
830-990 and dependency-DAG depths of 64/38/33 (the depth equals the
number of distinct topological priorities).
"""

from repro.workloads.classbench import (
    CLASSBENCH_PRESETS,
    ClassbenchLikeGenerator,
    RuleSet,
    classbench_preset,
)
from repro.workloads.dependencies import build_dependency_graph
from repro.workloads.traffic import uniform_traffic_matrix

__all__ = [
    "ClassbenchLikeGenerator",
    "RuleSet",
    "CLASSBENCH_PRESETS",
    "classbench_preset",
    "build_dependency_graph",
    "uniform_traffic_matrix",
]
