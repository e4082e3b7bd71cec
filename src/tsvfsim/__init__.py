"""Weak-measurement simulation for discrete-path interferometers.

Each name is imported from its module (``from tsvfsim.meter import
attach_meter``); the package itself exports only the modules.

Modules
-------
network
    Arm/slice layouts, stage unitaries, the nested interferometer preset,
    and the text format.
tsvf
    Forward/backward amplitude vectors, weak values and sequential weak
    values of arm projectors.
meter
    Gaussian pointer meters, impulsive couplings, post-selected pointer
    statistics and weak-value estimators.
sampling
    Reproducible Monte Carlo readout of pointer quadratures.
oracle
    Position-grid reference evolution and analytic-vs-grid comparison.
cli
    Command line front end (``tsvfsim`` entry point).
"""

from . import meter, network, oracle, sampling, tsvf

__version__ = "0.1.0"

__all__ = ["cli", "meter", "network", "oracle", "sampling", "tsvf"]
