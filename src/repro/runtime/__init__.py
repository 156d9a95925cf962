"""Engine-agnostic runtime seam (clock / scheduler / wire).

Protocol code is written against :class:`~repro.runtime.base.Runtime`
and runs unchanged under either implementation:

* :class:`~repro.runtime.sim_runtime.SimRuntime` -- the discrete-event
  simulator (engine clock, delivery ring, timer-wheel); bit-identical
  to the pre-seam direct calls by construction.
* :class:`~repro.runtime.async_runtime.AsyncRuntime` -- an asyncio
  event loop with a wall clock and a framed TCP/UDS transport
  (:mod:`repro.runtime.async_wire`), hosting live peers via
  :mod:`repro.runtime.async_service` (``python -m repro serve``).

This package imports no module of its own: simulation-only users never
pay the asyncio import (and the determinism linter's wall-clock
chokepoint stays a leaf of the import graph).
"""
