"""Cluster-wide name service.

Applications register well-known objects (a lock manager, a monitor
server, a pager) under string names and look them up from any node. The
paper assumes such a registry exists ("Naming an event involves
registering the name with the operating system", §3; central servers in
§6.2/§6.4 are found by name).

The directory itself is modelled as an idealised replicated service with
zero message cost — the paper's design never charges for name lookups and
no experiment depends on their cost. Event-name registration (user events,
§3) also lives here so that "registering the name with the operating
system" has one home.
"""

from __future__ import annotations

from typing import Any

from repro.errors import EventNameInUseError, NameServiceError, UnknownEventError


class NameService:
    """Cluster-level registry of named objects and named events."""

    def __init__(self) -> None:
        self._bindings: dict[str, Any] = {}
        #: registered event names -> ``{"registrar", "system"}``
        self.events: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # object names
    # ------------------------------------------------------------------

    def register(self, name: str, value: Any) -> None:
        """Bind ``name`` to a value (typically a capability)."""
        if name in self._bindings:
            raise NameServiceError(f"name {name!r} is already bound")
        self._bindings[name] = value

    def rebind(self, name: str, value: Any) -> None:
        """Bind ``name``, replacing any existing binding."""
        self._bindings[name] = value

    def lookup(self, name: str) -> Any:
        try:
            return self._bindings[name]
        except KeyError:
            raise NameServiceError(f"name {name!r} is not bound") from None

    def lookup_or_none(self, name: str) -> Any:
        return self._bindings.get(name)

    def unregister(self, name: str) -> None:
        if name not in self._bindings:
            raise NameServiceError(f"name {name!r} is not bound")
        del self._bindings[name]

    # ------------------------------------------------------------------
    # event names (user events, §3 of the paper)
    # ------------------------------------------------------------------

    def register_event(self, name: str, registrar: object = None,
                       system: bool = False) -> None:
        """Register an event name with the operating system."""
        if name in self.events:
            raise EventNameInUseError(f"event {name!r} is already registered")
        self.events[name] = {"registrar": registrar, "system": system}

    def event_exists(self, name: str) -> bool:
        return name in self.events

    def require_event(self, name: str) -> dict:
        info = self.events.get(name)
        if info is None:
            raise UnknownEventError(
                f"event {name!r} was never registered with the system")
        return info

    def is_system_event(self, name: str) -> bool:
        return self.require_event(name)["system"]

    def event_names(self) -> list[str]:
        return sorted(self.events)
