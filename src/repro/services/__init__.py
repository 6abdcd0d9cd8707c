"""Simulated SOA layer (paper Section 6, Fig. 5).

The prototype ran the TN Web service on Tomcat/Axis and the VO
Management toolkit as a SOA of Java web services.  Since the
reproduction is a single-process simulator, this subpackage models
that stack deterministically:

- :mod:`clock` — a simulated clock advanced by the latency model;
- :mod:`transport` — in-process service dispatch charging per-call
  latencies (network RTT, SOAP marshalling, service work, DB access);
- :mod:`soap` — SOAP-ish envelopes for the operation payloads;
- :mod:`tn_service` — the TN Web service with the three operations of
  Section 6.2 (``StartNegotiation``, ``PolicyExchange``,
  ``CredentialExchange``), with idempotent retries, per-phase
  checkpoints, and crash/restore recovery;
- :mod:`tn_client` — ``ClientWS``, the client driving a negotiation
  through the service operations;
- :mod:`resilience` — :class:`ResilientTransport`: per-call deadlines,
  bounded retries with exponential backoff and deterministic jitter,
  and per-endpoint circuit breakers (all over simulated time);
- :mod:`vo_toolkit` — the Host / Initiator / Member editions, with
  quorum-based formation under partial failure.

Import the classes from :mod:`repro.api` (the blessed public surface)
or from the deep canonical modules (``repro.services.tn_service``
etc.); the package itself re-exports nothing.
"""

__all__: list[str] = []
