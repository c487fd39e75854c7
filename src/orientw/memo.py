"""The per-solve memo, at the bottom of the package so that every layer
can keep its shared work in it.

A top-level solve (algorithms.solve_auto, or a registered solver called
directly) opens one memo for its length (_one_solve), and _kept keeps in it
what distinct instances share: the Units of a derived instance's view, one
per scales and distance table (instance._derived), and the staircases of
each distinct block or release-group entry (oracles.exit_staircases).
Each instance's integer view is held on the instance itself
(instance._view).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

from .errors import PreconditionError

# the memo of the solve under way (see _one_solve), else None
_MEMO: ContextVar[Optional[dict]] = ContextVar("orientw_memo", default=None)


@contextmanager
def _one_solve():
    """Open the memo for the length of a top-level solve and close it after;
    a solve inside an open one shares that memo."""
    token = _MEMO.set({} if _MEMO.get() is None else _MEMO.get())
    try:
        yield
    finally:
        _MEMO.reset(token)


def _kept(key: tuple, held: tuple, build):
    """build(), or what it built or refused earlier in the solve under way
    (_one_solve) at key and the ids of the held objects.  The memo holds
    the held objects, so no id is reused, and keeps a refusal without its
    traceback, which would hold the memo in a cycle."""
    memo = _MEMO.get()
    if memo is None:
        return build()
    key += tuple(map(id, held))
    hit = memo.get(key)
    if hit is None:
        try:
            built = build()
        except PreconditionError as refusal:
            built = refusal.with_traceback(None)
        hit = memo[key] = (held, built)
    if isinstance(hit[1], PreconditionError):
        # a copy: the kept refusal, raised, would hold the memo in its traceback
        raise type(hit[1])(*hit[1].args)
    return hit[1]
