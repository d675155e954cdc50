"""Runtime resource tracker: leaked threads/processes/sockets/fds.

The runtime counterpart of the static :mod:`.resources` pass, built the
same way the lock witness (:mod:`.witness`) backs the static lock-order
analyzer: while installed, the tracker wraps the OS-resource factories —
``threading.Thread``, ``subprocess.Popen``, ``socket.socket``,
``tempfile.mkstemp``/``mkdtemp`` — with recording shims scoped to
**calls made from repro source** (stdlib internals and test harness
frames keep the real factories, judged by the same caller-frame walk
the witness uses).  Each creation records its source site; at
:meth:`ResourceTracker.check` the survivors are audited:

- a tracked thread still alive after a join grace period,
- a tracked subprocess still running after a reap grace period,
- a tracked socket whose ``fileno()`` is still open,
- a tracked ``mkstemp`` fd still referring to the file it was created
  as (``fstat`` identity check, so fd-number reuse is not misreported),
- a tracked ``mkdtemp`` directory still on disk,

each becomes a :data:`RULE_RESOURCE_LEAK_RUNTIME` finding pointing at
the creation site.  Tracked objects are held by weak reference: an
object the GC already collected has released its OS handle through its
finalizer and is counted as released, not leaked.

Opt-in for a whole test run via ``REPRO_RESOURCE_TRACK=1`` (a conftest
session fixture installs a tracker and fails teardown on leaks); the
tier-1 gate also drives a sharded threads+procpool sweep under an
explicit tracker unconditionally
(``tests/test_lint_repo.py::TestResourceTrackerOverSweep``).
"""

from __future__ import annotations

import os
import socket as socket_module
import subprocess
import tempfile
import threading
import time
import weakref

from .callsite import Site, caller_frame, creation_site, in_repro
from .findings import LintFinding

__all__ = ["RULE_RESOURCE_LEAK_RUNTIME", "ResourceTracker",
           "tracking_enabled"]

RULE_RESOURCE_LEAK_RUNTIME = "resource-leak-runtime"

_ENV_FLAG = "REPRO_RESOURCE_TRACK"

#: Resource kind labels (also the keys of ``created``/``summary()``).
KINDS = ("thread", "process", "socket", "fd", "temp dir")


def tracking_enabled() -> bool:
    """True when the session-wide tracker opt-in flag is set."""
    return os.environ.get(_ENV_FLAG) == "1"


#: Frames never judged as a resource's creator, so the recorded site is
#: the code that *logically* created it (``subprocess.run`` constructing
#: its ``Popen`` is attributed to ``run``'s caller, and skipped when
#: that caller is not repro source).
_SKIP = (__file__, threading.__file__, subprocess.__file__,
         tempfile.__file__, socket_module.__file__)


class ResourceTracker:
    """Records repro-created OS resources (module docstring)."""

    def __init__(self, scope=None):
        self._scope = scope or in_repro
        self._lock = threading._allocate_lock()
        self.created: dict[str, int] = {kind: 0 for kind in KINDS}
        #: weakrefs to live objects: [(kind, site, ref)]
        self._objects: list[tuple[str, Site, weakref.ref]] = []
        #: mkstemp fds with their fstat identity: [(site, fd, dev, ino)]
        self._fds: list[tuple[Site, int, int, int]] = []
        #: mkdtemp paths: [(site, path)]
        self._dirs: list[tuple[Site, str]] = []
        self._installed = False
        self._originals: dict[str, object] = {}

    # ------------------------------------------------------------- recording
    def _in_scope(self) -> bool:
        frame = caller_frame(_SKIP)
        return frame is not None and self._scope(frame.f_code.co_filename)

    def _record_object(self, kind: str, obj) -> None:
        site = creation_site(_SKIP)
        with self._lock:
            self.created[kind] += 1
            self._objects.append((kind, site, weakref.ref(obj)))

    # -------------------------------------------------------- install hooks
    def install(self) -> "ResourceTracker":
        if self._installed:
            return self
        tracker = self
        self._originals = {
            "Thread": threading.Thread,
            "Popen": subprocess.Popen,
            "socket": socket_module.socket,
            "mkstemp": tempfile.mkstemp,
            "mkdtemp": tempfile.mkdtemp,
        }

        def make_tracked(real_cls, kind):
            # A recording *subclass*, not a function factory: code that
            # runs while the tracker is installed may subclass the
            # patched name (``concurrent.futures`` defines
            # ``class _ExecutorManagerThread(threading.Thread)`` at
            # first import) or isinstance-check against it, and both
            # must keep working for a whole-session install.
            class Tracked(real_cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    if tracker._in_scope():
                        tracker._record_object(kind, self)
            Tracked.__name__ = real_cls.__name__
            Tracked.__qualname__ = real_cls.__qualname__
            return Tracked

        def mkstemp(*args, **kwargs):
            result = tracker._originals["mkstemp"](*args, **kwargs)
            if tracker._in_scope():
                fd = result[0]
                site = creation_site(_SKIP)
                try:
                    stat = os.fstat(fd)
                except OSError:  # pragma: no cover - defensive
                    return result
                with tracker._lock:
                    tracker.created["fd"] += 1
                    tracker._fds.append((site, fd, stat.st_dev,
                                         stat.st_ino))
            return result

        def mkdtemp(*args, **kwargs):
            path = tracker._originals["mkdtemp"](*args, **kwargs)
            if tracker._in_scope():
                with tracker._lock:
                    tracker.created["temp dir"] += 1
                    tracker._dirs.append((creation_site(_SKIP), path))
            return path

        threading.Thread = make_tracked(self._originals["Thread"],
                                        "thread")
        subprocess.Popen = make_tracked(self._originals["Popen"],
                                        "process")
        socket_module.socket = make_tracked(self._originals["socket"],
                                            "socket")
        tempfile.mkstemp = mkstemp
        tempfile.mkdtemp = mkdtemp
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        threading.Thread = self._originals["Thread"]
        subprocess.Popen = self._originals["Popen"]
        socket_module.socket = self._originals["socket"]
        tempfile.mkstemp = self._originals["mkstemp"]
        tempfile.mkdtemp = self._originals["mkdtemp"]
        self._installed = False

    def __enter__(self) -> "ResourceTracker":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --------------------------------------------------------------- verify
    def check(self, grace: float = 5.0) -> list[LintFinding]:
        """Leak findings for every tracked resource still held.

        ``grace`` bounds how long the check waits for orderly teardown
        (supervisor poll loops and daemon watchdogs exit within their
        poll interval of being stopped; a reaped worker needs a moment
        to be waited on) before declaring a leak.
        """
        with self._lock:
            objects = list(self._objects)
            fds = list(self._fds)
            dirs = list(self._dirs)
        findings: list[LintFinding] = []
        deadline = time.monotonic() + grace
        for kind, site, ref in objects:
            obj = ref()
            if obj is None:
                continue  # collected: the finalizer closed the handle
            if kind == "thread":
                if obj.is_alive():
                    obj.join(max(0.0, deadline - time.monotonic()))
                if obj.is_alive():
                    findings.append(self._leak(
                        site, f"thread {obj.name!r} created here is "
                              f"still alive at teardown"))
            elif kind == "process":
                if obj.poll() is None:
                    try:
                        obj.wait(max(0.0, deadline - time.monotonic()))
                    except subprocess.TimeoutExpired:
                        pass
                if obj.poll() is None:
                    findings.append(self._leak(
                        site, f"subprocess pid {obj.pid} spawned here "
                              f"is still running at teardown"))
            elif kind == "socket":
                if obj.fileno() != -1:
                    findings.append(self._leak(
                        site, "socket created here is still open at "
                              "teardown"))
        for site, fd, dev, ino in fds:
            try:
                stat = os.fstat(fd)
            except OSError:
                continue  # closed (possibly reused by someone else)
            if (stat.st_dev, stat.st_ino) == (dev, ino):
                findings.append(self._leak(
                    site, f"mkstemp fd {fd} created here is still open "
                          f"at teardown"))
        for site, path in dirs:
            if os.path.isdir(path):
                findings.append(self._leak(
                    site, f"temp dir {path} created here still exists "
                          f"at teardown"))
        return sorted(set(findings))

    def summary(self) -> dict[str, int]:
        """Creations per kind (``check()`` reports the leaked subset)."""
        with self._lock:
            return dict(self.created)

    @staticmethod
    def _leak(site: Site, what: str) -> LintFinding:
        return LintFinding(
            path=site.path, line=site.line,
            rule=RULE_RESOURCE_LEAK_RUNTIME,
            message=f"{what} (leaked OS resource; release it in a "
                    f"finally/close path)")
