"""Test-support machinery shipped with the library.

:mod:`repro.testing.chaos` is the deterministic fault injector the chaos
suite drives the supervised shard worker pool with.  It lives in ``src``
(not ``tests/``) because ``DLearnConfig.chaos`` and the ``REPRO_CHAOS``
environment gate construct it from library code.
"""

from .chaos import ChaosInjector, ChaosSpec, chaos_from_env

__all__ = ["ChaosInjector", "ChaosSpec", "chaos_from_env"]
