"""In-memory span recorder that wraps functions of a package from outside.

Targets are named by module and attribute path and resolved when the
recorder is installed.  A target that no longer exists is reported absent
instead of failing, so the benchmark keeps running across refactors.  A
module-level function is replaced under every name the package's modules
bind it to (``from .x import f`` makes such copies); a method is replaced
on its class.  ``uninstall`` puts every original back.

Spans are recorded in parallel lists: name, start, end, parent index and
call id, plus optional attributes filled in by per-target hooks.  The
recorder keeps one span stack, so it supports single-threaded callers only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Exceptions a hook raises when the wrapped function's arguments or result
# changed shape; the span is kept and only its attributes are dropped.
HOOK_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError)


@dataclass(frozen=True)
class Target:
    """A function to wrap.

    ``before(args, kwargs)`` runs ahead of the call and its result is
    passed on; ``after(result, args, kwargs, before)`` returns the span's
    attribute dict.
    """

    module: str
    attr: str
    span: str
    before: Callable | None = None
    after: Callable | None = None


class Recorder:
    def __init__(self, package: str):
        self.package = package
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.call: list[int | None] = []
        self.attrs: list[dict | None] = []
        self.call_id: int | None = None
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_id)
        self.attrs.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, call_id: int):
        """Span around one workload call; spans opened inside carry call_id."""
        self.call_id = call_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.call_id = None

    def _wrap(self, fn, target: Target):
        rec = self
        name, before, after = target.span, target.before, target.after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = None
            if before is not None:
                try:
                    pre = before(args, kwargs)
                except HOOK_ERRORS:
                    pre = None
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if after is not None:
                try:
                    rec.attrs[idx] = after(result, args, kwargs, pre)
                except HOOK_ERRORS:
                    pass
            return result

        return wrapper

    # ---- installing -----------------------------------------------------

    def _resolve(self, target: Target):
        """(owner, leaf name, original) or a reason string."""
        try:
            owner = importlib.import_module(target.module)
        except ImportError as exc:
            return f"module missing: {exc}"
        *path, leaf = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return f"{target.module}.{'.'.join(path)} missing"
        orig = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        if orig is None or not callable(orig):
            return f"{target.module}.{target.attr} missing"
        return owner, leaf, orig

    def install(self, targets) -> None:
        for target in targets:
            found = self._resolve(target)
            if isinstance(found, str):
                self.absent[target.span] = found
                continue
            owner, leaf, orig = found
            wrapper = self._wrap(orig, target)
            if isinstance(owner, type):
                self._patch(owner, leaf, orig, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    modname = getattr(mod, "__name__", "")
                    if modname != self.package and not modname.startswith(self.package + "."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key: str, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # ---- reading --------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def summary(self) -> dict:
        """Per span name: count, total and self seconds."""
        dur, own = self.durations(), self.self_times()
        out: dict[str, dict] = {}
        for i, name in enumerate(self.name):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += own[i]
        return out
