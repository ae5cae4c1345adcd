"""Layer timing recorded from outside the program.

:class:`Spans` replaces a function or method with a wrapper that times
each call.  It patches the attribute where the caller looks it up — a
class attribute for methods, a module global for functions imported by
name — so the program itself is never edited.  Only the traced run
installs timing wrappers; :meth:`Spans.restore` puts the originals back.

A layer's *self time* is its inclusive time minus the time its child
spans cover.  A call into a layer that is already open (an override
calling ``super()``, recursion) is folded into the open span, so
inclusive times are never counted twice.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any


class _Patches:
    """Attributes replaced by wrappers, and how to put them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _patch(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.attr`` with ``make(original)``; a class or
        static method stays one."""
        raw = owner.__dict__[attr]
        descriptor = isinstance(raw, (classmethod, staticmethod))
        original = raw.__func__ if descriptor else raw
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, type(raw)(wrapper) if descriptor else wrapper)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Spans(_Patches):
    """Per-layer inclusive time, child time and call counts."""

    def __init__(self) -> None:
        super().__init__()
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: Spans are recorded only while this is set (measured intervals);
        #: set-up and warm-up calls pass straight through.
        self.enabled = False
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._open: set[str] = set()

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as ``layer``.

        ``after(args, result)`` runs outside the span for counting what
        the call produced (it is charged to the caller's remainder, not
        to the layer).
        """
        spans = self

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if not spans.enabled or layer in spans._open:
                    return original(*args, **kwargs)
                frame = [0.0]
                spans._stack.append(frame)
                spans._open.add(layer)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    spans._stack.pop()
                    spans._open.discard(layer)
                    spans.total[layer] += elapsed
                    spans.child[layer] += frame[0]
                    spans.calls[layer] += 1
                    if spans._stack:
                        spans._stack[-1][0] += elapsed
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def self_time(self, layer: str) -> float:
        return self.total[layer] - self.child[layer]


class Hooks(_Patches):
    """Untimed observers on the program's interval boundaries.

    Every run, traced or not, needs to know where one fleet interval ends
    and the next begins, and what the engine actually served; a hook
    calls ``after(args, result)`` once the original returns and reads no
    clock of its own unless the callback does.
    """

    def add(
        self, owner: Any, attr: str, after: Callable[[tuple, Any], None]
    ) -> None:
        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                after(args, result)
                return result

            return wrapper

        self._patch(owner, attr, make)
