"""Memo tables for values that later programs share.

A sweep compiles and runs many programs that share their rounds, so the
compiler's plans and the emulator's runtime bodies are cached by value and
outlive the program that first built them (memo functions: Michie, "Memo
functions and machine learning", Nature 218, 1968). Each such module keeps
one ``Memo``, its keys tagged by kind, and ``clear_all`` empties them all.
"""

import weakref

_MEMOS: weakref.WeakSet = weakref.WeakSet()  # every Memo, for clear_all


class Memo:
    """Values by key, each built on its first query, within ``bound`` in total size.

    An entry's size is 1 unless the caller sizes it. When the next entry
    would take the memo past its bound, the memo is cleared whole first; a
    value larger than the bound is returned uncached. A build that raises
    caches nothing.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.entries: dict = {}
        self.held = 0  # the total size of the entries
        _MEMOS.add(self)

    def get(self, key, build, *args, size=None):
        """The value under ``key``, made by ``build(*args)`` on a miss; ``size(value)`` is its size, 1 by default."""
        try:
            return self.entries[key]
        except KeyError:
            pass
        value = build(*args)
        n = 1 if size is None else size(value)
        if self.held + n > self.bound:
            self.clear()
        if n <= self.bound:
            self.entries[key] = value
            self.held += n
        return value

    def clear(self) -> None:
        self.entries.clear()
        self.held = 0


def clear_all() -> None:
    """Clear every ``Memo``: what runs next builds as in a fresh process."""
    for memo in list(_MEMOS):
        memo.clear()
