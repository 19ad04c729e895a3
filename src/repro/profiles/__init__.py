"""Profile data models and the paper's analyses.

* :mod:`repro.profiles.pathprofile` — collected per-path counts and
  metrics, with decoding back to block sequences.
* :mod:`repro.profiles.hotpaths` — Table 4: hot/cold and dense/sparse
  path classification by L1 D-cache misses, threshold sweeps, and the
  paths-per-block statistic of §6.4.3.
* :mod:`repro.profiles.hotprocs` — Table 5: the same apportioned by
  procedure, with paths-per-procedure.
* :mod:`repro.profiles.perturbation` — Table 2: instrumented vs.
  uninstrumented metric ratios, plus the frequency-based correction the
  paper sketches for predictable metrics.
* :mod:`repro.profiles.merge` — pointwise merging of flat path/edge
  profiles from independent runs or shards.
* :mod:`repro.profiles.oracle` — a tracing ground-truth profiler: path
  frequencies derived from the block trace, independent of the
  instrumentation, used to validate it.
"""

from repro.profiles.pathprofile import (
    FunctionPathProfile,
    PathEntry,
    PathProfile,
    collect_path_profile,
)
from repro.profiles.hotpaths import (
    HotPathReport,
    PathClass,
    classify_paths,
    paths_per_hot_block,
)
from repro.profiles.hotprocs import HotProcReport, ProcEntry, classify_procedures
from repro.profiles.perturbation import (
    PERTURBATION_EVENTS,
    estimate_instrumentation_instructions,
    perturbation_ratios,
)
from repro.profiles.merge import merge_counts, merge_metric_maps
from repro.profiles.oracle import PathOracle
from repro.profiles.sampling import StackSampler
from repro.profiles.spectra import (
    CoverageReport,
    SpectrumDiff,
    path_coverage,
    spectrum_diff,
    untested_paths,
)
from repro.profiles.interproc import StitchedPath, stitch_hot_path

__all__ = [
    "CoverageReport",
    "SpectrumDiff",
    "StackSampler",
    "StitchedPath",
    "path_coverage",
    "spectrum_diff",
    "stitch_hot_path",
    "untested_paths",
    "FunctionPathProfile",
    "HotPathReport",
    "HotProcReport",
    "PERTURBATION_EVENTS",
    "PathClass",
    "PathEntry",
    "PathOracle",
    "PathProfile",
    "ProcEntry",
    "classify_paths",
    "classify_procedures",
    "collect_path_profile",
    "estimate_instrumentation_instructions",
    "merge_counts",
    "merge_metric_maps",
    "paths_per_hot_block",
    "perturbation_ratios",
]
