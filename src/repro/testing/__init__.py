"""Test-support machinery shipped with the library.

:mod:`repro.testing.chaos` is the deterministic fault injector the chaos
suite drives the supervised shard worker pool with.  It lives in ``src``
(not ``tests/``) because ``DLearnConfig.chaos`` and the ``REPRO_CHAOS``
environment gate construct it from library code.

:mod:`repro.testing.oracles` holds the serial reference implementations
(object-level θ-subsumption, uncached coverage, the per-example chase) that
the tests and the shard benchmark compare the production paths against.
It is not imported here: it depends on :mod:`repro.core`, which imports
this package.
"""

from .chaos import ChaosInjector, ChaosSpec, chaos_from_env

__all__ = ["ChaosInjector", "ChaosSpec", "chaos_from_env"]
