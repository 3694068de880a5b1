"""Background training for the simulated evaluator.

:class:`TrainingPool` trains the pending attempts of a
:class:`~repro.workflow.SimulatedEvaluator` while the manager keeps the
simulated clock, the event queue and every settlement.  Attempts are
handed over as they start (:meth:`TrainingPool.submit`) and their
outcomes read back only when their completion events fire
(:meth:`TrainingPool.take`).  The manager runs no helper thread.

The manager is one of the trainers.  With ``min(cores, num_workers)``
trainers, one fewer worker processes are forked, and submissions are
dealt round-robin, the first to the manager:

- the workers' share is sent to them at once and trained ahead of need;
  outcomes that arrive before they are taken wait in a buffer;
- the manager's share waits here and is trained when it is taken, so
  an attempt of that share whose completion never fires is never
  trained, and its training runs in the manager's process, where an
  in-process profiler or tracer sees it.

The run function must be a pure function of its config, so where an
outcome is computed cannot change it: a worker's outcome, one computed
on the manager and one recomputed after a worker died are the same, and
so is the campaign's history.  That is also the fallback for everything
that goes wrong:

- a worker found dead (the manager waits on the result pipe and the
  workers' sentinels together) retires the whole pool, and every outcome
  still missing is computed on the manager;
- an outcome or a config that does not pickle is computed on the manager;
- with one trainer (one core, one simulated worker, or no ``fork``)
  nothing forks and every outcome is computed when it is taken.

The run function reaches the workers by fork, so it is never pickled.
:meth:`TrainingPool.close` terminates and joins the workers (abandoned
trainings stop there); the next submission to the workers' share starts
a fresh set and hands it every one of their submissions still outstanding.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import weakref
from multiprocessing.connection import Connection, wait
from typing import Any, Callable

__all__ = ["TrainingPool", "evaluate", "training_processes"]

#: Task bytes handed to the workers and not answered yet.  Below the
#: pipe's buffer, so the manager never blocks writing a task while the
#: workers block writing results it has not read.
_TASK_BYTES = 32 * 1024


def training_processes() -> int:
    """Processes that can train at once, the manager's included: one per
    usable core, or 0 (train on the manager) with a single core or where
    ``fork`` is unavailable."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return cores if cores > 1 else 0


def evaluate(run_function: Callable[[Any], Any], config: Any) -> Any:
    """The run function's result on ``config``, or the exception it raised."""
    try:
        return run_function(config)
    except Exception as exc:
        return exc


def _serve(
    run_function: Callable[[Any], Any],
    tasks: Connection,
    task_lock: Any,
    results: Connection,
    result_lock: Any,
    unused: tuple[Connection, ...],
) -> None:
    """A worker's loop: train each task, send back ``(job_id, pickled
    outcome or None)``.  Ends when the manager's end of the task pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the manager's
    for conn in unused:
        conn.close()  # so the manager's exit is this worker's EOF
    while True:
        try:
            with task_lock:
                data = tasks.recv_bytes()
        except EOFError:
            return
        job_id, config = pickle.loads(data)
        outcome = evaluate(run_function, config)
        try:
            blob = pickle.dumps(outcome)
        except Exception:
            blob = None  # the manager computes it
        with result_lock:
            results.send((job_id, blob))


def _stop(workers: list, conns: list) -> None:
    for worker in workers:
        worker.terminate()
    for worker in workers:
        worker.join()
    for conn in conns:
        conn.close()


class TrainingPool:
    """Trains submitted ``(job_id, config)`` pairs for an evaluator of
    ``num_workers`` simulated workers.

    ``processes`` is the forked worker count, one fewer than the trainers
    (0: every outcome computed on the manager); a dead worker sets it to 0
    for good.  Submissions are keyed by job id: submitting a job that is
    still outstanding reuses its training (the restart after a simulated
    worker death), and :meth:`take` ends it.
    """

    def __init__(self, run_function: Callable[[Any], Any], num_workers: int) -> None:
        self.run_function = run_function
        self.processes = max(min(training_processes(), num_workers) - 1, 0)
        self._dealt = 0  # submissions dealt to a trainer
        self._submitted: dict[int, Any] = {}  # job id -> config, not taken
        self._held: set[int] = set()  # the manager's share, not taken
        self._backlog: dict[int, bytes] = {}  # pickled tasks not sent yet
        self._sent: dict[int, int] = {}  # job id -> task bytes, unanswered
        self._arrived: dict[int, bytes | None] = {}  # answered, not taken
        self._workers: list = []
        self._stopper: weakref.finalize | None = None

    def submit(self, job_id: int, config: Any) -> None:
        """Deal ``config``'s training for ``job_id`` to a trainer."""
        if job_id in self._submitted:
            return
        self._submitted[job_id] = config
        if not self.processes:
            return
        dealt, self._dealt = self._dealt, self._dealt + 1
        if dealt % (self.processes + 1) == 0:
            self._held.add(job_id)
        elif self._workers:
            self._receive_ready()
            self._queue(job_id, config)
        else:
            self._start()  # queues every outstanding submission of the workers

    def take(self, job_id: int, config: Any) -> Any:
        """The outcome of ``job_id``'s training on ``config`` (a result or
        the exception raised): a worker's, waited for if need be, or
        computed here when it is the manager's share, was never submitted
        or cannot arrive."""
        if job_id in self._submitted:
            while job_id in self._sent:
                self._receive()
            del self._submitted[job_id]
            self._held.discard(job_id)
            self._backlog.pop(job_id, None)
            blob = self._arrived.pop(job_id, None)
            if blob is not None:
                try:
                    return pickle.loads(blob)
                except Exception:  # e.g. an exception class that cannot rebuild
                    pass  # itself from its args: compute the outcome here
        return evaluate(self.run_function, config)

    def close(self) -> None:
        """Terminate and join the workers; their outstanding submissions go
        to the next set of workers, started by the next one dealt to them."""
        if self._stopper is not None:
            self._stopper()
        self._workers, self._stopper = [], None
        self._backlog.clear()
        self._sent.clear()

    # ------------------------------------------------------------------ #
    def _start(self) -> None:
        ctx = multiprocessing.get_context("fork")
        task_reader, self._tasks = ctx.Pipe(duplex=False)
        self._results, result_writer = ctx.Pipe(duplex=False)
        unused = (self._tasks, self._results)  # the manager's ends
        args = (self.run_function, task_reader, ctx.Lock(), result_writer, ctx.Lock(), unused)
        self._workers = [
            ctx.Process(target=_serve, args=args, daemon=True) for _ in range(self.processes)
        ]
        for worker in self._workers:
            worker.start()
        task_reader.close()
        result_writer.close()
        self._stopper = weakref.finalize(
            self, _stop, self._workers, [self._tasks, self._results]
        )
        for job_id, config in self._submitted.items():
            if job_id not in self._held and job_id not in self._arrived:
                self._queue(job_id, config)

    def _queue(self, job_id: int, config: Any) -> None:
        try:
            self._backlog[job_id] = pickle.dumps((job_id, config))
        except Exception:  # pickling raises several types; any means the same
            self._arrived[job_id] = None  # computed on the manager when taken
            return
        self._feed()

    def _feed(self) -> None:
        """Send backlogged tasks, oldest first, while the unanswered task
        bytes stay under :data:`_TASK_BYTES` (one task always goes)."""
        in_pipe = sum(self._sent.values())
        while self._backlog:
            job_id, data = next(iter(self._backlog.items()))
            if self._sent and in_pipe + len(data) > _TASK_BYTES:
                return
            del self._backlog[job_id]
            try:
                self._tasks.send_bytes(data)
            except OSError:  # no worker left to read it
                self._retire()
                return
            self._sent[job_id] = len(data)
            in_pipe += len(data)

    def _receive(self) -> None:
        """Wait for one outcome and buffer it; a dead worker retires the pool."""
        sentinels = [worker.sentinel for worker in self._workers]
        ready = wait([self._results, *sentinels])
        try:
            if any(sentinel in ready for sentinel in sentinels):
                raise EOFError
            job_id, blob = self._results.recv()
        except (EOFError, OSError):
            self._retire()
            return
        self._sent.pop(job_id, None)
        if job_id in self._submitted:
            self._arrived[job_id] = blob
        self._feed()

    def _retire(self) -> None:
        """A worker died: stop the rest and compute on the manager from now on."""
        self.processes = 0
        self.close()

    def _receive_ready(self) -> None:
        """Buffer the outcomes already waiting, freeing room for tasks."""
        while self._sent and self._results.poll():
            self._receive()
