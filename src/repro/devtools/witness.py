"""Runtime lock witness: observed acquisition-order checking.

The static pass (:mod:`.lockorder`) sees the orders the *source*
spells; this module sees the orders that actually happen.  While
installed, it replaces the ``threading.Lock``/``RLock``/``Condition``
factories with instrumented wrappers (scoped to locks *created by repro
code* — stdlib internals keep real primitives) and records an edge
``A -> B`` every time a thread acquires ``B`` while holding ``A``.
Locks are keyed by creation site (``file:line``), so a cycle report
points at source the same way static findings do, and two instances
from one site share an identity — exactly the "never hold two of these
at once in different orders" discipline the analyzer enforces.

:func:`LockWitness.check` asserts the observed graph is acyclic and
returns :data:`RULE_WITNESS_CYCLE` findings otherwise.  An acquisition
order the static pass could not resolve (dynamic dispatch, callbacks,
locks handed across objects) still shows up here.

Opt-in for a whole test run via ``REPRO_LOCK_WITNESS=1`` (a conftest
fixture installs a session witness and fails teardown on cycles); the
tier-1 gate also drives a small threaded sweep under an explicit
witness unconditionally.

Reentrant acquisition of one instance records no edge (that's what
RLock is for); ``Condition.wait`` releases and reacquires, and the
witness tracks both transitions so held-sets stay truthful across
waits.
"""

from __future__ import annotations

import os
import threading

from .callsite import Site, caller_frame, creation_site, in_repro
from .findings import LintFinding

__all__ = ["RULE_WITNESS_CYCLE", "LockWitness", "witness_enabled"]

RULE_WITNESS_CYCLE = "lock-witness-cycle"

_ENV_FLAG = "REPRO_LOCK_WITNESS"


def witness_enabled() -> bool:
    """True when the session-wide witness opt-in flag is set."""
    return os.environ.get(_ENV_FLAG) == "1"


#: Frames never judged as a lock's creator: with two witnesses stacked
#: (a session witness plus a test-local one), the inner factory calls
#: the outer one from this module, and the outer witness must judge the
#: original caller, not ``witness.py``.
_SKIP = (__file__, threading.__file__)


class LockWitness:
    """Records actual nested-acquisition edges (module docstring)."""

    def __init__(self, scope=None):
        self._scope = scope or in_repro
        self._graph_lock = threading._allocate_lock()
        #: (src site, dst site) -> (thread name, count)
        self.edges: dict[tuple[Site, Site], tuple[str, int]] = {}
        self.acquisitions = 0
        self._local = threading.local()
        self._installed = False
        self._originals: dict[str, object] = {}

    # ------------------------------------------------------------- tracking
    def _held(self) -> list[tuple[Site, int]]:
        """This thread's held stack: (site, id(lock)) pairs."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _note_acquired(self, site: Site, lock_id: int) -> None:
        stack = self._held()
        reentrant = any(held_id == lock_id for _, held_id in stack)
        if not reentrant:
            with self._graph_lock:
                self.acquisitions += 1
                for held_site, held_id in stack:
                    if held_id == lock_id:
                        continue
                    key = (held_site, site)
                    name, count = self.edges.get(
                        key, (threading.current_thread().name, 0))
                    self.edges[key] = (name, count + 1)
        stack.append((site, lock_id))

    def _note_released(self, lock_id: int) -> None:
        stack = self._held()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][1] == lock_id:
                del stack[index]
                return

    # -------------------------------------------------------- install hooks
    def install(self) -> "LockWitness":
        if self._installed:
            return self
        witness = self
        self._originals = {"Lock": threading.Lock,
                           "RLock": threading.RLock,
                           "Condition": threading.Condition}
        real_lock, real_rlock = threading.Lock, threading.RLock

        def make_factory(real_factory):
            def factory(*args, **kwargs):
                frame = caller_frame(_SKIP)
                if frame is None or not witness._scope(
                        frame.f_code.co_filename):
                    return real_factory(*args, **kwargs)
                return _WitnessedLock(witness, real_factory(*args,
                                                            **kwargs))
            return factory

        def condition_factory(lock=None):
            frame = caller_frame(_SKIP)
            if frame is None or not witness._scope(
                    frame.f_code.co_filename):
                return self._originals["Condition"](lock)
            if lock is None:
                lock = _WitnessedLock(witness, real_rlock())
            return _WitnessedCondition(witness, lock)

        threading.Lock = make_factory(real_lock)
        threading.RLock = make_factory(real_rlock)
        threading.Condition = condition_factory
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        threading.Lock = self._originals["Lock"]
        threading.RLock = self._originals["RLock"]
        threading.Condition = self._originals["Condition"]
        self._installed = False

    def __enter__(self) -> "LockWitness":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --------------------------------------------------------------- verify
    def check(self) -> list[LintFinding]:
        """Cycle findings over the observed acquisition-order graph."""
        with self._graph_lock:
            edges = dict(self.edges)
        graph: dict[Site, set[Site]] = {}
        for (src, dst), _ in edges.items():
            graph.setdefault(src, set()).add(dst)
            graph.setdefault(dst, set())
        findings: list[LintFinding] = []
        for cycle in _site_cycles(graph):
            arcs = [(src, dst) for src, dst
                    in zip(cycle, cycle[1:] + cycle[:1])
                    if dst in graph.get(src, ())]
            order = " -> ".join(str(site) for site in cycle)
            threads = sorted({edges[arc][0] for arc in arcs
                             if arc in edges})
            findings.append(LintFinding(
                path=cycle[0].path, line=cycle[0].line,
                rule=RULE_WITNESS_CYCLE,
                message=f"observed lock acquisitions form a cycle "
                        f"{order} -> {cycle[0]} (threads: "
                        f"{', '.join(threads)}); two threads taking "
                        f"these arcs concurrently can deadlock"))
        return sorted(set(findings))


class _WitnessedLock:
    """Drop-in Lock/RLock proxy that reports to the witness.

    Implements the full lock protocol *plus* the private hooks
    ``threading.Condition`` uses on its inner lock, so a witnessed lock
    can serve as a Condition's lock and survive ``wait()``'s
    release/reacquire dance with a truthful held-stack.
    """

    def __init__(self, witness: LockWitness, inner):
        self._witness = witness
        self._inner = inner
        self._site = creation_site(_SKIP)

    def acquire(self, blocking=True, timeout=-1):
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._witness._note_acquired(self._site, id(self))
        return acquired

    def release(self):
        self._inner.release()
        self._witness._note_released(id(self))

    def locked(self):
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<witnessed {self._inner!r} from {self._site}>"

    # Condition inner-lock protocol --------------------------------------
    def _release_save(self):
        self._witness._note_released(id(self))
        if hasattr(self._inner, "_release_save"):
            return self._inner._release_save()
        self._inner.release()
        return None

    def _acquire_restore(self, state):
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        self._witness._note_acquired(self._site, id(self))

    def _is_owned(self):
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def _at_fork_reinit(self):  # pragma: no cover - fork safety
        self._inner._at_fork_reinit()


class _WitnessedCondition(threading.Condition):
    """A Condition over a witnessed lock.

    ``threading.Condition`` already routes every acquire/release —
    including the ones inside ``wait()`` — through the lock object we
    hand it, so instrumenting the lock instruments the condition.
    """

    def __init__(self, witness: LockWitness, lock):
        if not isinstance(lock, _WitnessedLock):
            lock = _WitnessedLock(witness, lock)
        super().__init__(lock)


def _site_cycles(graph: dict[Site, set[Site]]) -> list[list[Site]]:
    index: dict[Site, int] = {}
    low: dict[Site, int] = {}
    stack: list[Site] = []
    on_stack: set[Site] = set()
    components: list[list[Site]] = []
    counter = [0]

    def connect(node: Site) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(graph.get(node, ()), key=str):
            if succ not in index:
                connect(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            components.append(component)

    for node in sorted(graph, key=str):
        if node not in index:
            connect(node)
    cycles = []
    for component in components:
        if len(component) > 1:
            cycles.append(sorted(component, key=str))
        elif component[0] in graph.get(component[0], ()):
            cycles.append(component)
    return cycles
