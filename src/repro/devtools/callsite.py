"""Creation-site attribution for the runtime checkers.

The lock witness (:mod:`.witness`) and the resource tracker
(:mod:`.resource_tracker`) both wrap stdlib factories and must judge
and label the frame that *logically* created an object: the first
frame outside the checker itself and the stdlib modules it wraps.  Each
caller passes its own ``skip`` tuple of file names; this module's own
frames are always skipped.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

__all__ = ["Site", "in_repro", "caller_frame", "creation_site"]


@dataclass(frozen=True)
class Site:
    """A creation site (``file:line``): the unit of identity findings
    point at, so runtime reports read like static ones."""

    path: str
    line: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}"


def in_repro(filename: str) -> bool:
    """Default scope predicate: only objects created by repro source."""
    normalized = filename.replace(os.sep, "/")
    return "/repro/" in normalized or normalized.endswith("/repro.py")


def caller_frame(skip: tuple[str, ...]):
    """First stack frame outside this module and the ``skip`` files."""
    frame = sys._getframe(1)
    while frame is not None and (frame.f_code.co_filename == __file__
                                 or frame.f_code.co_filename in skip):
        frame = frame.f_back
    return frame


def creation_site(skip: tuple[str, ...]) -> Site:
    """The :class:`Site` of :func:`caller_frame`, path relative to the
    source or site-packages root."""
    frame = caller_frame(skip)
    if frame is None:  # pragma: no cover - defensive
        return Site("<unknown>", 0)
    filename = frame.f_code.co_filename.replace(os.sep, "/")
    for marker in ("/src/", "/site-packages/"):
        index = filename.rfind(marker)
        if index >= 0:
            filename = filename[index + len(marker):]
            break
    return Site(filename, frame.f_lineno)
