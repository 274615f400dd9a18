"""Simulation and inference for point processes with function-valued marks.

Subpackage map:

- ``core``      windows, cadlag paths, columnar configurations, path metrics
- ``ground``    ground-process simulators and thinning
- ``marks``     functional-mark models and mark densities
- ``geometry``  union-of-disks sections and coverage
- ``stats``     summary statistics, trace-variogram, kriging, identity checks
- ``infer``     intensity functionals, likelihoods and estimation schemes
- ``cli``       command-line entry point

A ``Configuration`` is stored as columns: a read-only (n, D) ``ground``
array (event time last on a temporal window), one ``AuxTable`` of ``auxs``
(an (n,) type column and an (n, c) NaN-padded value matrix) and one
``MarkTable`` of cadlag ``marks``.  Every user callable takes such columns
and returns one value per row; the per-point ``MarkedPoint`` views are
built on demand for other callers, and no fmpp module reads them.

Hot numeric kernels live in ``_kernels``, one NumPy implementation each;
the time-warp metric's dynamic program lives in ``_skorohod``, on NumPy
arrays as well.  SciPy is a test dependency only.
"""
from .core import (
    AuxMark,
    AuxMeasure,
    CadlagPath,
    Configuration,
    MarkedPoint,
    ReferenceSpec,
    SampleSchedule,
    Window,
    configuration_from_json,
    configuration_to_json,
    cylinder_contains,
    ground_projection,
    shift,
    skorohod_distance,
    temporal_projection,
    uniform_distance,
)
from .errors import NonConvergenceError, NumericalError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "AuxMark",
    "AuxMeasure",
    "CadlagPath",
    "Configuration",
    "MarkedPoint",
    "ReferenceSpec",
    "SampleSchedule",
    "Window",
    "configuration_from_json",
    "configuration_to_json",
    "cylinder_contains",
    "ground_projection",
    "shift",
    "skorohod_distance",
    "temporal_projection",
    "uniform_distance",
    "ValidationError",
    "NumericalError",
    "NonConvergenceError",
    "__version__",
]
