"""The PARDIS request broker.

The ORB delivers requests from clients to objects.  For SPMD objects
it is aware of every computing thread and "can transfer distributed
arguments directly between the computing threads of the client and the
server" (paper §1).  Layers, bottom-up:

- :mod:`repro.orb.transport` — endpoints, ports and channels (the
  NexusLite role).
- :mod:`repro.orb.operation` — runtime descriptions of IDL operations,
  shared by generated proxies and skeletons.
- :mod:`repro.orb.request` — request/reply messages and their CDR
  encoding (the GIOP role).
- :mod:`repro.orb.reference` — object references (IORs) carrying the
  endpoint set of an SPMD object.
- :mod:`repro.orb.naming` — the naming domain used by ``_bind``.
- :mod:`repro.orb.nameservice` — that domain as an ordinary IDL
  object: the servant that serves it and the client façade that
  reaches it from another process.
- :mod:`repro.orb.transfer` — the client invocation engine and the
  slots, codecs and inbox both transfer methods share.
- :mod:`repro.orb.datapath` — where argument data flows: the two
  transfer methods evaluated in the paper (§3.2 centralized, §3.3
  multi-port) as two :class:`~repro.orb.datapath.DataPath` objects.
- :mod:`repro.orb.adapter` — the server-side object adapter: servant
  registration, the per-thread dispatch loop and the server
  invocation engine.
- :mod:`repro.orb.proxy` — the client side: ``_bind`` / ``_spmd_bind``
  and method invocation, blocking and future-returning.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name → defining submodule, resolved lazily.  Lazy loading
#: keeps this package importable from the leaves of an import cycle:
#: :mod:`repro.ft.policy` needs :mod:`repro.orb.operation` while
#: :mod:`repro.orb.transfer` needs :mod:`repro.ft` — eager package
#: imports here would close that loop.
_EXPORTS = {
    "BindMode": "repro.orb.proxy",
    "ClientProxy": "repro.orb.proxy",
    "Direction": "repro.orb.operation",
    "NamingClient": "repro.orb.nameservice",
    "NamingError": "repro.orb.naming",
    "NamingServant": "repro.orb.nameservice",
    "NamingService": "repro.orb.naming",
    "ObjectReference": "repro.orb.reference",
    "OperationSpec": "repro.orb.operation",
    "ParamSpec": "repro.orb.operation",
    "Port": "repro.orb.transport",
    "RemoteError": "repro.orb.operation",
    "ReplyMessage": "repro.orb.request",
    "RequestMessage": "repro.orb.request",
    "Servant": "repro.orb.adapter",
    "ServantGroup": "repro.orb.adapter",
    "TransportError": "repro.orb.transport",
    "UserException": "repro.orb.operation",
    "decode_reply": "repro.orb.request",
    "decode_request": "repro.orb.request",
    "serve_naming": "repro.orb.nameservice",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.orb' has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
