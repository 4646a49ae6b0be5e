"""The named CAD View catalog as copy-on-write snapshots.

Concurrency invariant (checked by repro-lint RL007): readers never take
a lock and never observe a half-applied mutation.  ``_views`` always
points at an *immutable* dict; every mutation copies the current dict
under ``_lock``, applies the change to the copy, and swaps the
reference in one assignment.  A reader that grabbed the old reference
keeps a consistent catalog for as long as it holds it — exactly what an
in-flight ``HIGHLIGHT SIMILAR`` needs while another session drops or
rebuilds the view it is reading.

The registry implements the read-only ``Mapping`` protocol so existing
callers (the semantic analyzer's view-existence checks, ``SHOW
CADVIEWS`` sorting) keep working unchanged against a snapshot.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Mapping, Optional

from repro.errors import CADViewError

__all__ = ["ViewRegistry"]


class ViewRegistry(Mapping):
    """A thread-safe, copy-on-write mapping of view name -> CAD View."""

    def __init__(self, initial: Optional[Mapping[str, object]] = None):
        self._lock = threading.Lock()
        self._views: Dict[str, object] = dict(initial or {})

    # -- reading (lock-free: one volatile reference read) -----------------

    def snapshot(self) -> Dict[str, object]:
        """The current immutable catalog; safe to iterate at leisure."""
        return self._views

    def __getitem__(self, name: str) -> object:
        return self._views[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: object) -> bool:
        return name in self._views

    def get_view(self, name: str) -> object:
        """Look up a view, raising the explorer's usual error shape."""
        views = self._views
        try:
            return views[name]
        except KeyError:
            raise CADViewError(
                f"unknown CAD View {name!r}; have {sorted(views)}"
            ) from None

    # -- mutation (copy under the lock, swap one reference) ---------------

    def set(self, name: str, view: object) -> Optional[object]:
        """Create or replace a named view atomically; return the view
        it replaced, or ``None``."""
        with self._lock:
            views = dict(self._views)
            replaced = views.get(name)
            views[name] = view
            self._views = views
        return replaced

    def drop(self, name: str) -> object:
        """Remove a named view and return it; raises when it does not
        exist."""
        with self._lock:
            if name not in self._views:
                raise CADViewError(f"unknown CAD View {name!r}")
            views = dict(self._views)
            dropped = views.pop(name)
            self._views = views
        return dropped

    def __repr__(self) -> str:
        return f"ViewRegistry({sorted(self._views)})"
