"""The gateway's control-channel face: service object ``ACL_Gateway``.

Verbs are spelled ``Job_Submit`` / ``Job_Status`` / ``Job_Cancel`` /
``Job_Poll`` — the RPC layer structurally refuses underscore-prefixed
names, the same constraint that shaped ``Telemetry_Poll`` and
``Recorder_Dump``. ``Job_Poll`` is the cursor-poll contract of
PROTOCOLS §1.5 over the store's job feed: one
:class:`~repro.cursorlog.CursorLog` and one
:func:`~repro.cursorlog.poll_reply` document, shared with
``Telemetry_Poll`` and ``Obs_Scrape`` (schema ``repro-jobs-1``, §1.8).

Tenant identity rides in the REQUEST envelope's ``tenant`` field (set
``Proxy.tenant``), which the daemon binds per-dispatch and this server
reads via :func:`repro.rpc.context.current_tenant`. An explicit
``tenant=`` argument is accepted for in-process callers; when both are
present they must agree — a mismatch is an auth failure, not a
preference.
"""

from __future__ import annotations

from typing import Any

from repro.errors import TenantAuthError
from repro.gateway.gateway import Gateway
from repro.rpc.context import current_tenant
from repro.rpc.expose import expose


@expose
class GatewayServer:
    """Remote face of a :class:`~repro.gateway.gateway.Gateway`."""

    OBJECT_ID = "ACL_Gateway"

    def __init__(self, gateway: Gateway):
        self._gateway = gateway

    @staticmethod
    def _resolve_tenant(claimed: str | None) -> str | None:
        """The effective tenant id for this dispatch.

        Envelope field and explicit argument must agree when both are
        given: a client signing requests as one tenant while naming
        another is lying to somebody.
        """
        envelope = current_tenant()
        if envelope and claimed and envelope != claimed:
            raise TenantAuthError(
                f"request envelope says tenant {envelope!r} but the call "
                f"named {claimed!r}"
            )
        return envelope or claimed

    def Job_Submit(
        self,
        api_key: str = "",
        spec: dict[str, Any] | None = None,
        priority: int = 0,
        tenant: str | None = None,
    ) -> dict[str, Any]:
        return self._gateway.submit(
            self._resolve_tenant(tenant), api_key, spec or {}, priority=priority
        )

    def Job_Status(
        self, job_id: str, api_key: str = "", tenant: str | None = None
    ) -> dict[str, Any]:
        return self._gateway.status(
            self._resolve_tenant(tenant), api_key, job_id
        )

    def Job_Cancel(
        self, job_id: str, api_key: str = "", tenant: str | None = None
    ) -> dict[str, Any]:
        return self._gateway.cancel(
            self._resolve_tenant(tenant), api_key, job_id
        )

    def Job_Poll(
        self,
        cursor: int = 0,
        max_events: int = 256,
        api_key: str = "",
        tenant: str | None = None,
    ) -> dict[str, Any]:
        return self._gateway.poll(
            self._resolve_tenant(tenant),
            api_key,
            cursor=cursor,
            max_events=max_events,
        )
