"""One sampling thread for every profile a run records.

Resource profiles (:mod:`repro.obs.resources`) and stack profiles
(:mod:`repro.obs.prof`) are both *readers* driven by one
:class:`Sampler`: one daemon thread per process, the injected clock,
the idempotent begin/start/stop lifecycle and the open-span label of
every reading.  :func:`sample` is the one place that arms it::

    with obs.capture() as telemetry:
        with sample(telemetry, profile_hz=10.0, flame_hz=97.0):
            run_pipeline()
    telemetry.resource_profile  # repro.resource-profile/v1
    telemetry.flame_profile     # repro.flame/v1

A reader has ``hz`` (its rate), ``section`` (the telemetry attribute
its document folds into), ``begin``/``read``/``end(now, label)``,
``document()`` and ``fold(existing)`` (its document folded over the
attached one by that document kind's single fold).  The sampler
attaches to any telemetry object by duck typing: it reads ``enabled``
and ``current_span_name`` and writes each reader's ``section``.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from .resources import ResourceReader

#: Stage label of readings taken while no span is open.
TOP_LABEL = "(top)"


class Sampler:
    """Drives a list of readers from one daemon thread.

    Each reader keeps its own rate: the thread sleeps until the next
    reader is due and gives every due reader one reading, labelled
    with the span open at that moment.  ``telemetry`` (optional,
    duck-typed) supplies the label and receives the folded documents
    on :meth:`stop`.  ``clock`` is injectable, and :meth:`tick` can
    drive the sampler without a thread, for deterministic tests.
    """

    def __init__(
        self,
        readers: Sequence[Any],
        *,
        telemetry: Optional[Any] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not readers:
            raise ValueError("a sampler needs at least one reader")
        self.readers = tuple(readers)
        self._telemetry = telemetry
        self._clock = clock
        # Guards the readers' tables: the thread writes them while other
        # threads may read documents mid-run.
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._begun = False
        self._stopped = False
        self._due: List[float] = [math.inf] * len(self.readers)

    # -- lifecycle ----------------------------------------------------

    def begin(self) -> None:
        """Anchor every reader's time base (idempotent).

        The calling thread is the profiled one: the stack reader pins
        it here.  Separate from :meth:`start` so deterministic tests
        can drive :meth:`tick` without a thread.
        """
        if self._begun:
            return
        self._begun = True
        now = self._clock()
        label = self._label()
        with self._lock:
            for reader in self.readers:
                reader.begin(now, label)
        self._due = [now + 1.0 / reader.hz for reader in self.readers]

    def start(self) -> "Sampler":
        """Begin sampling and launch the daemon thread."""
        self.begin()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run,
                name="repro-sampler",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread, end every reader, fold each document into
        the telemetry (idempotent).

        A document lands on an enabled telemetry as its reader's
        ``section`` through that kind's fold, so worker documents
        already merged in by ``merge_snapshot`` are kept.
        """
        if self._stopped:
            return
        self._stopped = True
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if not self._begun:
            return
        now = self._clock()
        label = self._label()
        telemetry = self._telemetry
        attach = telemetry is not None and getattr(telemetry, "enabled", False)
        with self._lock:
            for reader in self.readers:
                reader.end(now, label)
                if attach:
                    existing = getattr(telemetry, reader.section, None)
                    setattr(telemetry, reader.section, reader.fold(existing))

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop_event.wait(
            max(min(self._due) - self._clock(), 0.0)
        ):
            self.tick()

    # -- sampling -----------------------------------------------------

    def _label(self) -> str:
        name = getattr(self._telemetry, "current_span_name", "")
        return name or TOP_LABEL

    def tick(self) -> None:
        """Give every reader that is due one reading now."""
        now = self._clock()
        label = self._label()
        with self._lock:
            for index, reader in enumerate(self.readers):
                due = self._due[index]
                if now < due:
                    continue
                reader.read(now, label)
                period = 1.0 / reader.hz
                # Keep the cadence drift-free; after a stall, skip the
                # missed readings instead of bursting to catch up.
                due += period
                self._due[index] = due if due > now else now + period

    def documents(self) -> Dict[str, Dict[str, Any]]:
        """Each reader's document so far, keyed by ``section``; safe
        to call while the thread runs."""
        with self._lock:
            return {
                reader.section: reader.document() for reader in self.readers
            }


class NullSampler:
    """What :func:`sample` yields with no rate set: no thread, no state."""

    __slots__ = ()

    def documents(self) -> Dict[str, Dict[str, Any]]:
        return {}

    @property
    def running(self) -> bool:
        return False


#: The process-wide null sampler (shared, stateless).
NULL_SAMPLER = NullSampler()


@contextmanager
def sample(
    telemetry: Optional[Any] = None,
    *,
    profile_hz: Optional[float] = None,
    flame_hz: Optional[float] = None,
    keep_samples: bool = True,
) -> Iterator[Any]:
    """Sample resources at ``profile_hz`` and stacks at ``flame_hz``
    around a block, on one thread.

    A falsy rate leaves its reader out; with neither, the block runs
    under :data:`NULL_SAMPLER`.  ``keep_samples=False`` keeps the
    resource rollups only, bounding what exec workers ship home.  The
    documents fold into ``telemetry`` on exit, also when the block
    raises.
    """
    # Deferred: repro.obs.prof imports TOP_LABEL from this module.
    from .prof import StackReader

    readers: List[Any] = []
    if profile_hz:
        readers.append(ResourceReader(profile_hz, keep_samples=keep_samples))
    if flame_hz:
        readers.append(StackReader(flame_hz))
    if not readers:
        yield NULL_SAMPLER
        return
    sampler = Sampler(readers, telemetry=telemetry)
    try:
        yield sampler.start()
    finally:
        sampler.stop()
