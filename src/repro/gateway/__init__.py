"""Multi-tenant facility gateway: queue, fair-share scheduler, quotas.

The paper's deployment gives one research team one workstation; a real
facility fronts its instruments for *many* teams at once. This package
adds that front door:

- :class:`~repro.gateway.tenants.TenantRegistry` — API-key identity
  (HMAC-checked), per-tenant quotas and submit rate limits;
- :class:`~repro.gateway.jobs.JobStore` — a journal-backed persistent
  job queue (crash-safe submit/complete records) with a cursor-polled
  event feed;
- :class:`~repro.gateway.scheduler.FairShareScheduler` — weighted
  stride scheduling across tenants, health-gated placement across
  instrument cells;
- :class:`~repro.gateway.gateway.Gateway` — the orchestrator executing
  jobs as campaigns;
- :class:`~repro.gateway.service.GatewayServer` — the daemon service
  object (``ACL_Gateway``: ``Job_Submit`` / ``Job_Status`` /
  ``Job_Cancel`` / ``Job_Poll``);
- :class:`~repro.gateway.client.GatewayClient` — one tenant's handle,
  local or over the control channel.

Protocol details live in ``docs/PROTOCOLS.md`` §1.8; metric and health
semantics in ``docs/OBSERVABILITY.md``.
"""

from repro.gateway.client import GatewayClient
from repro.gateway.gateway import Gateway, JobContext, campaign_runner
from repro.gateway.jobs import (
    CANCELLED,
    FAILED,
    FEED_SCHEMA,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    Job,
    JobStore,
)
from repro.gateway.scheduler import Cell, FairShareScheduler
from repro.gateway.service import GatewayServer
from repro.gateway.tenants import TenantRegistry, TenantSpec

__all__ = [
    "Gateway",
    "GatewayClient",
    "GatewayServer",
    "JobContext",
    "campaign_runner",
    "Job",
    "JobStore",
    "FEED_SCHEMA",
    "QUEUED",
    "RUNNING",
    "SUCCEEDED",
    "FAILED",
    "CANCELLED",
    "Cell",
    "FairShareScheduler",
    "TenantRegistry",
    "TenantSpec",
]
