"""Memos that live no longer than one command.

``cli.main`` runs each command inside ``command_scope()``.  Two kinds of
memo take part, both keyed by the call's arguments and filled only by
calls:

- ``command_memo``: stores results only while a scope is open.  Outside a
  scope every call computes afresh, so library code and tests that call a
  check directly share nothing between calls.
- ``kept_cache``: stores results always, so that library code outside a
  command keeps reusing the sector bases, rotation lifts and bracket
  matrices; a scope empties it when it ends.

When the outermost scope ends, every memo is emptied.  Each memo counts its
hits and misses over the life of the process (emptying keeps the counts) and
reports them with ``cache_info()``, as ``lru_cache`` does.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from contextlib import contextmanager

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

_MEMOS: list["Memo"] = []
_open_scopes = 0


class Memo:
    """``fn``'s results by argument tuple (see the module docstring)."""

    def __init__(self, fn, always: bool):
        functools.update_wrapper(self, fn)
        self._fn = fn
        self._always = always
        self._store: dict = {}
        self.hits = self.misses = 0
        _MEMOS.append(self)

    def __call__(self, *args, **kwargs):
        if not (self._always or _open_scopes):
            return self._fn(*args, **kwargs)
        key = (args, tuple(kwargs.items())) if kwargs else args
        try:
            value = self._store[key]
            self.hits += 1
        except KeyError:
            self.misses += 1
            value = self._store[key] = self._fn(*args, **kwargs)
        return value

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, None, len(self._store))

    def cache_clear(self) -> None:
        """Drop every stored result; the counts are kept."""
        self._store.clear()


def command_memo(fn) -> Memo:
    return Memo(fn, always=False)


def kept_cache(fn) -> Memo:
    return Memo(fn, always=True)


@contextmanager
def command_scope():
    """Share memoized results inside the block; when the outermost block
    ends, however it ends, every memo is emptied."""
    global _open_scopes
    _open_scopes += 1
    try:
        yield
    finally:
        _open_scopes -= 1
        if not _open_scopes:
            for memo in _MEMOS:
                memo.cache_clear()
