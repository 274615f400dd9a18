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
array (event time last on a temporal window), a tuple of ``auxs`` and one
``MarkTable`` of cadlag ``marks``; ``Configuration.points`` builds
``MarkedPoint`` views from them on demand.

Hot numeric kernels live in ``_kernels``, one NumPy/SciPy implementation
each; the time-warp metric's dynamic program lives in ``_skorohod``, on
NumPy arrays as well.
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
