"""Bearer-token authentication for the campaign service.

The service reuses the shared-secret conventions of :mod:`repro.net`:
tokens are opaque strings handed out of band (CLI ``--token`` /
``$REPRO_SERVE_TOKEN``), never cross the wire except inside the
``Authorization`` header, and are compared with
:func:`hmac.compare_digest` so a probing client learns nothing from
response timing. Unlike ``repro.net`` there is no pickled payload on
this surface — requests are plain JSON — so a token gates *scheduling
work and reading results*, not code execution.

Each configured token is one **tenant**: jobs submitted under a token
are queued, listed and readable under that token only. The tenant label
is a short digest of the token (never the token itself), so it is safe
to show in logs, job files and the dashboard.

With no tokens configured the service runs in *open mode* — every
client is the ``"public"`` tenant — which is only sane on a loopback
interface; :class:`~repro.serve.server.CampaignServer` warns when an
open server leaves 127.0.0.1, mirroring the ``repro.net`` secret
warning.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable

__all__ = ["TokenAuth", "OPEN_TENANT", "tenant_label"]

#: the tenant every request maps to when no tokens are configured
OPEN_TENANT = "public"


def tenant_label(token: str) -> str:
    """Loggable tenant identity: a short digest, never the token."""
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
    return f"tenant-{digest[:10]}"


class TokenAuth:
    """Maps ``Authorization: Bearer <token>`` headers to tenant labels."""

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._tenants: dict[str, str] = {}
        for token in tokens:
            if not token:
                raise ValueError("auth tokens must be non-empty strings")
            self._tenants[token] = tenant_label(token)

    @property
    def enabled(self) -> bool:
        return bool(self._tenants)

    def tenant_for(self, authorization: str | None) -> str | None:
        """The tenant a request acts as, or ``None`` when refused.

        Open mode accepts everything (including absent headers) as
        :data:`OPEN_TENANT`. With tokens configured, the header must be
        ``Bearer <token>`` for a known token; every configured token is
        checked with a constant-time comparison.
        """
        if not self._tenants:
            return OPEN_TENANT
        if not authorization:
            return None
        scheme, _, candidate = authorization.partition(" ")
        candidate = candidate.strip()
        if scheme.lower() != "bearer" or not candidate:
            return None
        # check every token so timing does not reveal which one matched
        matched: str | None = None
        for token, label in self._tenants.items():
            if hmac.compare_digest(token.encode("utf-8"), candidate.encode("utf-8")):
                matched = label
        return matched
