"""Deterministic fault injection for the simulated SOA.

The paper's prototype (Section 6) ran Trust-X negotiations over a real
SOAP/Tomcat/Oracle stack where calls time out, messages get lost, and
services crash mid-negotiation.  This subpackage makes those failure
modes *representable and reproducible* in the simulation:

- :mod:`plan` — :class:`FaultPlan`, a schedule of :class:`FaultSpec`
  entries (which fault, on which call); seeded plans derive the
  schedule from a :class:`random.Random` seed, so a run is exactly
  repeatable;
- :mod:`injector` — :class:`FaultInjector`, a transport decorator that
  executes the plan: message drops, lost responses (timeouts),
  duplicated deliveries, endpoint crashes with delayed restarts, and
  database-connect failures;
- :mod:`adversarial` — hostile-peer probe construction for the
  adversarial fault kinds (malformed, truncated, oversized, replayed,
  reordered, Byzantine), fired by the injector alongside the
  legitimate traffic;
- :mod:`demo` — the fault-tolerant negotiation walkthrough behind
  ``python -m repro faults`` and
  ``examples/fault_tolerant_negotiation.py``.

All injected delays are charged to the
:class:`~repro.services.clock.SimClock`; nothing depends on wall-clock
time or unseeded randomness.

Import the classes from :mod:`repro.api` or from the canonical modules
``repro.faults.plan`` / ``repro.faults.injector``; the package itself
re-exports nothing.
"""

__all__: list[str] = []
