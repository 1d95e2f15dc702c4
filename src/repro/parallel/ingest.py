"""Pipelined asynchronous ingestion for :class:`PartitionedPipeline`.

The synchronous drive loop interleaves three costs on one thread:
routing (:meth:`~repro.parallel.router.KeyRouter.route_batch`), block
encoding (:class:`~repro.core.blocks.TupleBlock` construction under the
block transports) and shard dispatch.  Under the process executors the
shards compute concurrently, but the *feeder* is still serial with them:
while the caller routes and encodes the next burst, every worker that
has drained its pipe sits idle.  :class:`PipelinedIngest` moves the
whole feed path onto a dedicated thread behind a bounded hand-off
queue, overlapping ingestion with shard compute while preserving the
synchronous path's semantics bit for bit.

Determinism
-----------
Byte-identity with the synchronous drive follows from three invariants:

* **One feeder thread owns the pipeline.**  After construction the
  caller never touches the wrapped pipeline directly; every
  ``process_batch`` call — and every rebalance barrier those calls
  trigger — runs on the feeder thread, in submission order.  There is
  no concurrent executor access to interleave.
* **Submission order is preserved.**  The hand-off queue is FIFO and
  single-consumer, so shard *i* sees exactly the sub-stream (in exactly
  the order) it would see under the synchronous loop, and the merged
  flush sequence / summed join statistics follow.
* **Barriers drain the queue.**  :meth:`flush` and :meth:`close` first
  stop the feeder (sentinel + join), so no batch can race a shard
  teardown; a rebalance migration barrier needs no extra machinery
  because it already runs *on* the feeder thread between batches.

Backpressure
------------
The hand-off queue is bounded (``max_pending_batches``):
:meth:`submit` blocks when the feeder falls behind, so an unbounded
producer cannot queue the whole stream in memory.  Downstream, the
executor-level credit window (``credit_window``) bounds
dispatched-but-unprocessed batches per shard, and the shm ring's fixed
capacity bounds bytes in flight — three nested bounded buffers, each
blocking (never dropping) at its own level.

Errors raised inside the feeder (a shard failure that cannot fail
over, a poisoned batch) are captured and re-raised to the caller on the
next :meth:`submit`, :meth:`drain` or :meth:`flush`; the feeder keeps
draining the queue after a failure so a blocked producer can never
deadlock against a dead consumer.
"""

from __future__ import annotations

import queue
import threading
from typing import Optional, Sequence

from ..core.pipeline import empty_outputs
from ..core.tuples import StreamTuple
from .pipeline import PartitionedPipeline
from .shard import Outputs, merge_outputs

#: Default bound of the feeder hand-off queue, in batches.  Deep enough
#: to absorb routing/encoding jitter, shallow enough that a stalled
#: shard surfaces as producer backpressure within a few bursts.
DEFAULT_MAX_PENDING = 8

#: Sentinel object that tells the feeder thread to exit its loop.
_STOP = object()


class PipelinedIngest:
    """A feeder thread driving a :class:`PartitionedPipeline`.

    Parameters
    ----------
    pipeline:
        The (not yet fed) pipeline to drive.  The caller must not call
        ``process``/``process_batch``/``flush`` on it directly while
        the feeder is live — ownership transfers here.
    max_pending_batches:
        Bound of the hand-off queue; :meth:`submit` blocks when full.

    Usage::

        with PartitionedPipeline(config, 4, executor="process") as p:
            with PipelinedIngest(p) as feeder:
                for chunk in chunked(dataset.arrivals(), 1024):
                    feeder.submit(chunk)
                outputs = feeder.flush()
    """

    def __init__(
        self,
        pipeline: PartitionedPipeline,
        max_pending_batches: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if max_pending_batches < 1:
            raise ValueError(
                f"max_pending_batches must be >= 1, got {max_pending_batches}"
            )
        self.pipeline = pipeline
        self._collect = pipeline.config.collect_results
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_pending_batches)
        self._outputs: Outputs = empty_outputs(self._collect)
        self._error: Optional[BaseException] = None
        self._stopped = False
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-ingest-feeder", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # feeder thread
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                if self._error is not None:
                    # Drain-and-discard after a failure: a producer
                    # blocked on a full queue must always make progress
                    # so it can observe the error on its next submit.
                    continue
                try:
                    produced = self.pipeline.process_batch(item)
                except BaseException as exc:  # noqa: B036 - refired to caller
                    self._error = exc
                else:
                    self._outputs = merge_outputs(
                        self._collect, self._outputs, produced
                    )
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------
    # producer interface
    # ------------------------------------------------------------------

    def _raise_pending(self) -> None:
        if self._error is not None:
            error = self._error
            raise RuntimeError(
                "pipelined ingestion failed in the feeder thread"
            ) from error

    def submit(self, batch: Sequence[StreamTuple]) -> None:
        """Enqueue one burst; blocks while ``max_pending_batches`` are
        already in flight (backpressure).

        The batch is copied, so the caller may reuse its buffer.  Raises
        any error the feeder hit on an *earlier* batch — errors are
        asynchronous by one hand-off at most.
        """
        if self._stopped:
            raise RuntimeError("ingestion already flushed/closed")
        self._raise_pending()
        self._queue.put(list(batch))

    def drain(self) -> None:
        """Block until every submitted batch has been fed (the queue is
        empty and the last ``process_batch`` returned), then surface any
        feeder error.  The feeder stays live — a checkpoint, not a
        barrier that ends ingestion."""
        if not self._stopped:
            self._queue.join()
        self._raise_pending()

    def flush(self) -> Outputs:
        """Stop the feeder, flush the pipeline, return all outputs.

        Equivalent to the synchronous drive's accumulated
        ``process_batch`` returns merged with the final
        ``pipeline.flush()`` — same outputs, same order.
        """
        self._stop_feeder()
        self._raise_pending()
        return merge_outputs(
            self._collect, self._outputs, self.pipeline.flush()
        )

    def close(self) -> None:
        """Stop the feeder and release the pipeline without draining.

        Safe on every unwind path: idempotent, joins the feeder first so
        no batch can race the executor teardown, and never raises the
        stored feeder error (``close`` runs on exception paths where the
        original error is already propagating)."""
        if self._closed:
            return
        self._closed = True
        self._stop_feeder()
        self.pipeline.close()

    def _stop_feeder(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._queue.put(_STOP)
        self._thread.join()

    def __enter__(self) -> "PipelinedIngest":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
