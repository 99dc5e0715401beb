"""The transport-agnostic query service behind the daemon.

One :class:`QueryService` owns:

* a registry of **shared engines**, one per served store path, opened
  once (mmap-backed for ``LPDB0004`` files) and queried concurrently by
  every request thread — the plan cache is lock-protected and compiled
  plans are stateless, so one engine serves any number of threads;
* **admission control** — at most ``max_inflight`` queries execute at
  once; up to ``max_queue`` more wait (their queue time counts against
  their deadline); anything beyond that is rejected immediately with
  HTTP 429 semantics, so overload degrades to fast rejections instead of
  unbounded latency;
* a **per-query deadline** with cooperative cancellation — the request
  thread waits on the executing future for the deadline's remainder and
  answers 504 on expiry; the worker observes the cancellation at its
  checkpoints (on dequeue, after execution) so an abandoned query never
  populates the result cache and a queued-but-expired query never
  executes at all;
* the **result cache** (:mod:`repro.serve.cache`) keyed on
  ``(store fingerprint, dialect, query, pivot, kernels, force-join)`` —
  hits bypass admission control entirely, which is what makes hot
  repeated queries cheap enough for the serving benchmark's QPS floor.

Errors are typed by :class:`ServeError` carrying an HTTP status; engine
and parse errors (:class:`~repro.lpath.errors.LPathError`) map to 400,
a closed/draining service to 503, so clients always see a clean one-line
error instead of a traceback.

Failures are further classified **transient vs. permanent** (the
``transient`` flag on every :class:`ServeError`, surfaced to clients so
their retry policies never hammer a permanent 400):

* a store whose reads fail (``OSError``/``ValueError`` out of the mmap
  path — a dying disk, a truncated file, the ``mmap_read_error`` fault
  point) answers **503** and is **quarantined** after
  ``quarantine_after`` consecutive failures, or immediately when its
  on-disk bytes no longer match the fingerprint taken at open; a
  quarantined store keeps answering 503 (with a ``Retry-After`` hint)
  while every other store serves normally, and recovers through
  re-verification — lazily after its cooldown, or actively via
  :meth:`QueryService.readiness` (the ``/readyz`` probe);
* a sliding-window **circuit breaker** watches executed-query outcomes
  and, past a failure-rate threshold, sheds load with **429** for a
  cooldown instead of queueing doomed work; half-open trials re-close
  it as soon as executions succeed again.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from ..columnar.kernels import kernel_info, native_kernels
from ..lpath.errors import LPathError
from ..plan import schemes
from ..plan.ir import AGGREGATE_OPS
from .cache import EncodedAggregate, ResultCache

DIALECTS = tuple(schemes.DIALECTS)

#: Rows per page when the request does not say (and the ceiling any
#: request can ask for in one page; deeper pagination streams the rest).
DEFAULT_PAGE_ROWS = 1_000
MAX_PAGE_ROWS = 50_000

#: Queries one /batch request may carry.
MAX_BATCH_QUERIES = 256

#: Recent samples kept per endpoint for the latency percentiles.
LATENCY_WINDOW = 2_048


class ServeError(LPathError):
    """A request-level failure with an HTTP status code.

    ``transient`` tells clients whether the same request is worth
    retrying (defaults from the status: overload and unavailability
    pass, bad requests don't); ``retry_after`` is an optional hint in
    seconds the transport surfaces as a ``Retry-After`` header."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        transient: Optional[bool] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        if transient is None:
            transient = status in (429, 503)
        self.transient = transient


class QueryCancelled(Exception):
    """Raised inside a worker when its request gave up waiting."""


class CircuitBreaker:
    """A sliding-window circuit breaker over executed-query outcomes.

    Closed: outcomes feed a window of the last ``window`` executions;
    once at least ``min_samples`` are in and the failure rate exceeds
    ``threshold``, the breaker opens.  Open: callers are shed (the
    service answers 429 with a ``Retry-After``) for ``cooldown``
    seconds.  Half-open: after the cooldown, one trial request per
    cooldown period is let through — a success closes the breaker and
    clears the window, a failure re-opens it.  Only *executed* queries
    are recorded: admission-control rejections and client errors (4xx)
    say nothing about backend health and never move the breaker.
    """

    def __init__(
        self,
        window: int = 64,
        threshold: float = 0.5,
        min_samples: int = 20,
        cooldown: float = 2.0,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise LPathError(
                f"breaker threshold must be in (0, 1], got {threshold!r}"
            )
        if min_samples < 1 or window < min_samples:
            raise LPathError(
                "breaker needs window >= min_samples >= 1, got "
                f"window={window!r} min_samples={min_samples!r}"
            )
        self.window = window
        self.threshold = threshold
        self.min_samples = min_samples
        self.cooldown = cooldown
        self._samples: deque = deque(maxlen=window)
        self._state = "closed"
        self._since = time.monotonic()
        self.opens = 0
        self.shed = 0
        self._lock = threading.Lock()

    def allow(self) -> Optional[float]:
        """``None`` to proceed, or the seconds to wait before retrying
        when this request is being shed."""
        with self._lock:
            if self._state == "closed":
                return None
            now = time.monotonic()
            elapsed = now - self._since
            if elapsed >= self.cooldown:
                # This request is the (next) half-open trial; resetting
                # the clock spaces trials one cooldown apart, so a trial
                # that never reports back cannot wedge the breaker.
                self._state = "half_open"
                self._since = now
                return None
            self.shed += 1
            return max(self.cooldown - elapsed, 0.05)

    def record(self, ok: bool) -> None:
        with self._lock:
            if self._state == "half_open":
                if ok:
                    self._state = "closed"
                    self._samples.clear()
                else:
                    self._state = "open"
                    self.opens += 1
                self._since = time.monotonic()
                return
            self._samples.append(ok)
            if self._state != "closed":
                return
            if len(self._samples) < self.min_samples:
                return
            failures = sum(1 for sample in self._samples if not sample)
            if failures / len(self._samples) > self.threshold:
                self._state = "open"
                self._since = time.monotonic()
                self.opens += 1
                self._samples.clear()

    def stats(self) -> dict:
        with self._lock:
            failures = sum(1 for sample in self._samples if not sample)
            return {
                "state": self._state,
                "window": self.window,
                "samples": len(self._samples),
                "failures": failures,
                "threshold": self.threshold,
                "min_samples": self.min_samples,
                "cooldown_seconds": self.cooldown,
                "opens": self.opens,
                "shed": self.shed,
            }


@dataclass(frozen=True)
class StoreSpec:
    """One store to serve: a compiled corpus path plus the dialect its
    requests must use.  The file records its own labels (Definition 4.1
    or start/end) and answers from them; the dialect only restricts the
    queries."""

    path: str
    dialect: str = "lpath"


class StoreHandle:
    """A served store: the shared engine, its cached identity, and its
    health state (mutated only under the owning service's lock)."""

    def __init__(
        self, spec: StoreSpec, engine, fingerprint: str, live=None
    ) -> None:
        self.spec = spec
        self.engine = engine
        self.fingerprint = fingerprint
        #: The :class:`repro.live.LiveEngineManager` when this store is a
        #: writable LPDB0005 directory; ``None`` for immutable files.
        self.live = live
        #: Read failures since the last success; ``quarantine_after`` of
        #: them in a row quarantines the store.
        self.consecutive_failures = 0
        #: Monotonic instant the quarantine cooldown ends (None = healthy).
        self.quarantined_until: Optional[float] = None
        self.quarantine_reason: Optional[str] = None
        #: Times this store has entered quarantine over its lifetime.
        self.quarantines = 0

    def verify(self) -> tuple[bool, Optional[str]]:
        """Re-fingerprint the on-disk file against the identity taken at
        open — the integrity probe behind quarantine and recovery.  Runs
        outside any lock (it reads the disk).

        Live stores delegate to their manager: the daemon holds the
        exclusive writer lock, so *it* is the source of truth — a
        divergence between disk and the manager's view is real
        corruption, not a legitimate external write."""
        if self.live is not None:
            return self.live.verify()
        from .. import store as store_module

        try:
            current = store_module.store_fingerprint(self.spec.path)
        except (OSError, ValueError) as error:
            return False, f"store unreadable: {error}"
        if current != self.fingerprint:
            return False, (
                f"on-disk bytes changed under the server (fingerprint "
                f"{current} != served {self.fingerprint})"
            )
        return True, None

    def health(self) -> dict:
        return {
            "quarantined": self.quarantined_until is not None,
            "consecutive_failures": self.consecutive_failures,
            "quarantines": self.quarantines,
            "reason": self.quarantine_reason,
        }

    def describe(self) -> dict:
        engine = self.engine
        document = {
            "path": self.spec.path,
            "dialect": self.spec.dialect,
            "fingerprint": self.fingerprint,
            "segments": engine.segments,
            "plan_cache": engine.cache_stats(),
            "health": self.health(),
        }
        if self.live is not None:
            document["live"] = self.live.status()
        return document


class QueryRequest:
    """A validated query request (transport-independent)."""

    __slots__ = (
        "query", "dialect", "pivot", "count", "limit", "offset", "store",
        "timeout", "top_k", "agg",
    )

    def __init__(self, params: dict) -> None:
        query = params.get("query") if "query" in params else params.get("q")
        if not isinstance(query, str) or not query.strip():
            raise ServeError(400, "missing query text (use 'query' or 'q')")
        self.query = query
        dialect = params.get("dialect", "lpath")
        if dialect not in DIALECTS:
            raise ServeError(
                400, f"unknown dialect {dialect!r}; choose from {DIALECTS}"
            )
        self.dialect = dialect
        self.pivot = _flag(params, "pivot")
        self.count = _flag(params, "count")
        self.limit = _bounded_int(
            params, "limit", DEFAULT_PAGE_ROWS, 1, MAX_PAGE_ROWS
        )
        self.offset = _bounded_int(params, "offset", 0, 0, None)
        self.store = params.get("store") or None
        # top_k compiles an early-terminating top-k plan (and caches only
        # the truncated rows); agg evaluates an aggregate instead of rows.
        top_k = params.get("top_k")
        self.top_k = None if top_k is None else _as_int("top_k", top_k)
        if self.top_k is not None and self.top_k < 0:
            raise ServeError(400, f"top_k must be >= 0 (got {self.top_k})")
        agg = params.get("agg") or None
        if agg is not None and agg not in AGGREGATE_OPS:
            raise ServeError(
                400,
                f"unknown agg {agg!r}; choose from {', '.join(AGGREGATE_OPS)}",
            )
        self.agg = agg
        if self.agg is not None and self.top_k is not None:
            raise ServeError(400, "top_k and agg cannot be combined")
        if self.agg is not None and self.count:
            raise ServeError(400, "count and agg cannot be combined")
        timeout = params.get("timeout_ms")
        if timeout is None:
            self.timeout = None
        else:
            millis = _as_int("timeout_ms", timeout)
            if millis <= 0:
                raise ServeError(400, "timeout_ms must be a positive integer")
            self.timeout = millis / 1000.0


def _flag(params: dict, name: str) -> bool:
    value = params.get(name, False)
    if isinstance(value, int) and value in (0, 1):  # bools too; 1.0 is a float
        return bool(value)
    if isinstance(value, str):
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off", ""):
            return False
    raise ServeError(400, f"{name} must be a boolean (got {value!r})")


def _as_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ServeError(400, f"{name} must be an integer (got {value!r})")
    try:
        return int(value)
    except ValueError:
        raise ServeError(400, f"{name} must be an integer (got {value!r})")


def _bounded_int(
    params: dict, name: str, default: int, floor: int, ceiling: Optional[int]
) -> int:
    value = params.get(name)
    if value is None:
        return default
    number = _as_int(name, value)
    if number < floor:
        raise ServeError(400, f"{name} must be >= {floor} (got {number})")
    if ceiling is not None and number > ceiling:
        raise ServeError(400, f"{name} must be <= {ceiling} (got {number})")
    return number


class Answer(NamedTuple):
    """One response document whose row-bearing value (``head[slot]``: a
    page's :class:`~repro.columnar.result.ResultBatch` window, an
    :class:`~repro.serve.cache.EncodedAggregate`) is still the buffer the
    result cache holds.  In-process callers take :meth:`document`; the
    daemon sends :meth:`encode`, the same JSON byte for byte with no row
    ever built."""

    head: dict
    slot: Optional[str] = None
    kern: object = None  # the native bundle encoding "matches", if any

    def document(self) -> dict:
        head, slot = self.head, self.slot
        if slot == "matches":
            head[slot] = [list(pair) for pair in head[slot]]
        elif slot is not None:
            head[slot] = json.loads(head[slot].encode())
        return head

    def encode(self) -> bytes:
        head, slot = self.head, self.slot
        if slot is None:
            return json.dumps(head).encode("utf-8")
        value = head[slot].encode(self.kern)
        # Keys are ours and a quote inside a JSON string is escaped, so
        # the placeholder's text can only be the slot itself.
        mark = b'"%b": ' % slot.encode("ascii")
        return json.dumps({**head, slot: None}).encode("utf-8").replace(
            mark + b"null", mark + value, 1
        )


class _Ticket:
    """One admitted query's deadline and cancellation flag."""

    __slots__ = ("deadline", "cancelled")

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.cancelled = threading.Event()

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def check(self) -> None:
        if self.cancelled.is_set():
            raise QueryCancelled()


class QueryService:
    """Shared engines + admission control + result cache; see module doc."""

    def __init__(
        self,
        stores: Union[str, StoreSpec, Sequence[Union[str, StoreSpec]]],
        max_inflight: int = 8,
        max_queue: int = 16,
        timeout: float = 30.0,
        result_cache_size: int = 256,
        max_cached_rows: int = 100_000,
        quarantine_after: int = 3,
        store_retry_after: float = 1.0,
        breaker: Optional[CircuitBreaker] = None,
        compact_rows: int = 0,
    ) -> None:
        if max_inflight < 1:
            raise LPathError(
                f"max_inflight must be a positive int, got {max_inflight!r}"
            )
        if max_queue < 0:
            raise LPathError(f"max_queue must be >= 0, got {max_queue!r}")
        if timeout <= 0:
            raise LPathError(f"timeout must be positive, got {timeout!r}")
        if quarantine_after < 1:
            raise LPathError(
                f"quarantine_after must be >= 1, got {quarantine_after!r}"
            )
        if store_retry_after <= 0:
            raise LPathError(
                f"store_retry_after must be positive, got {store_retry_after!r}"
            )
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.timeout = float(timeout)
        if compact_rows < 0:
            raise LPathError(
                f"compact_rows must be >= 0, got {compact_rows!r}"
            )
        self.quarantine_after = quarantine_after
        self.store_retry_after = float(store_retry_after)
        self.compact_rows = int(compact_rows)
        self.appends = 0
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.results = ResultCache(result_cache_size, max_cached_rows)
        self._stores: dict[str, StoreHandle] = {}
        self._default: Optional[str] = None
        self._lock = threading.Lock()
        self._turnstile = threading.Condition(self._lock)
        self._inflight = 0
        self._waiting = 0
        self._draining = False
        self._closed = False
        self._started = time.monotonic()
        self.served = 0
        self.rejected = 0
        self.timeouts = 0
        self.errors = 0
        self.shed = 0
        self.store_failures = 0
        self.quarantines = 0
        # route -> [count, deque of recent seconds] for /stats percentiles.
        self._latency: dict[str, list] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve"
        )
        if isinstance(stores, (str, StoreSpec)):
            stores = [stores]
        if not stores:
            raise LPathError("QueryService needs at least one store to serve")
        try:
            for item in stores:
                spec = item if isinstance(item, StoreSpec) else StoreSpec(item)
                self._add_store(spec)
        except BaseException:
            self.close(drain_timeout=0.0)
            raise

    # -- engine registry ----------------------------------------------------

    def _add_store(self, spec: StoreSpec) -> None:
        from .. import store as store_module

        if spec.dialect not in DIALECTS:
            raise LPathError(
                f"unknown dialect {spec.dialect!r}; choose from {DIALECTS}"
            )
        if spec.path in self._stores:
            raise LPathError(f"store {spec.path!r} is already being served")
        if os.path.isdir(spec.path):
            # A live LPDB0005 directory: the daemon takes the exclusive
            # writer lock and serves through a manager that follows the
            # log (appends and compactions swap the engine in place).
            if spec.dialect != "lpath":
                raise LPathError(
                    "live (LPDB0005) corpora serve the lpath dialect only; "
                    "compact and re-label for xpath serving"
                )
            from ..live import LiveEngineManager

            try:
                manager = LiveEngineManager(
                    spec.path, writable=True, compact_rows=self.compact_rows,
                )
            except ValueError as error:  # StoreError: lock held, corrupt…
                raise LPathError(str(error)) from error
            self._warm(manager.engine)
            self._stores[spec.path] = StoreHandle(
                spec, manager.engine, manager.fingerprint(), live=manager
            )
            if self._default is None:
                self._default = spec.path
            return
        from ..lpath import LPathEngine

        fingerprint = store_module.store_fingerprint(spec.path)
        engine = LPathEngine.open(
            spec.path, dialect=schemes.DIALECTS[spec.dialect]
        )
        self._warm(engine)
        self._stores[spec.path] = StoreHandle(spec, engine, fingerprint)
        if self._default is None:
            self._default = spec.path

    @staticmethod
    def _warm(engine) -> None:
        """Materialize the lazily built columnar runtimes while still
        single-threaded, so the first burst of concurrent requests finds
        every per-segment physical context already in place."""
        compilers = getattr(engine, "_compiler", None)
        segments = getattr(compilers, "segments", None)
        for compiler in (
            [segment.compiler for segment in segments]
            if segments is not None else [compilers]
        ):
            if compiler is not None:
                compiler.columnar_runtime

    def _resolve(self, path: Optional[str]) -> StoreHandle:
        if path is None:
            handle = self._stores[self._default]
        else:
            handle = self._stores.get(path)
            if handle is None:
                raise ServeError(
                    404,
                    f"store {path!r} is not served here "
                    f"(serving: {sorted(self._stores)})",
                )
        if handle.live is not None:
            # Follow the log: a background compaction (or an append on
            # another connection) may have swapped the engine since this
            # handle was last touched.  The fingerprint moves with it,
            # which is what gives the result cache read-your-writes.
            with self._lock:
                handle.engine = handle.live.engine
                handle.fingerprint = handle.live.fingerprint()
        return handle

    # -- the request path ---------------------------------------------------

    def execute(self, params: dict) -> dict:
        """Run one validated request to a JSON-shaped response dict."""
        return self.answer(params).document()

    def answer(self, params: dict) -> Answer:
        """Run one validated request to its :class:`Answer`.

        Raises :class:`ServeError` for every failure mode (bad request,
        overload, timeout, draining); any other exception is a server
        bug the transport maps to 500."""
        request = QueryRequest(params)
        handle = self._resolve(request.store)
        self._check_store(handle)
        key = self._result_key(handle, request)
        started = time.perf_counter()
        rows = self.results.get_rows(key)
        cached = rows is not None
        if not cached:
            self._check_breaker()
            rows = self._execute_uncached(handle, request, key)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return self._page(rows, request, cached, elapsed_ms, key)

    def execute_append(self, params: dict) -> dict:
        """Durably append bracketed trees to a served live store and
        swap the rebuilt engine in before answering, so the next query —
        on any connection — sees the new rows (read-your-writes).

        400 for a non-live store, empty input or a parse error; 503
        (transient) when the WAL write itself fails — the rows were NOT
        acknowledged and the client may retry."""
        trees = params.get("trees")
        if not isinstance(trees, str) or not trees.strip():
            raise ServeError(
                400, "append needs non-empty bracketed 'trees' text"
            )
        store = params.get("store")
        if store is not None and not isinstance(store, str):
            raise ServeError(400, f"store must be a string, got {store!r}")
        handle = self._resolve(store)
        if handle.live is None:
            raise ServeError(
                400,
                f"store {handle.spec.path!r} is an immutable "
                "compiled file; only live (LPDB0005) corpora accept "
                "appends",
            )
        self._check_store(handle)
        ticket = _Ticket(time.monotonic() + self.timeout)
        self._admit(ticket)
        try:
            try:
                result = handle.live.append_trees(trees)
            except ValueError as error:
                # StoreError subclasses ValueError: a failed durability
                # barrier (fsync_fail / disk_full / torn_write) means
                # nothing was acknowledged — transient, retryable.
                # Anything else from the parser is a bad request.
                from ..store import StoreError

                if isinstance(error, StoreError):
                    with self._lock:
                        self.errors += 1
                    message = self._store_failure(handle, error)
                    raise ServeError(
                        503, message, retry_after=self.store_retry_after
                    ) from error
                raise ServeError(400, str(error)) from error
        finally:
            self._release()
        with self._lock:
            self.appends += 1
            handle.engine = handle.live.engine
            handle.fingerprint = result["fingerprint"]
            handle.consecutive_failures = 0
        return result

    def _check_breaker(self) -> None:
        """Shed this request with 429 while the circuit breaker is open
        (cache hits never get here — a sick backend can still serve its
        hot set)."""
        retry_after = self.breaker.allow()
        if retry_after is None:
            return
        with self._lock:
            self.rejected += 1
            self.shed += 1
        raise ServeError(
            429,
            "circuit breaker is open (recent executions kept failing); "
            "retry after the cooldown",
            retry_after=retry_after,
        )

    def _check_store(self, handle: StoreHandle) -> None:
        """Answer 503 for a quarantined store; once its cooldown has
        passed, probe the on-disk bytes and lift the quarantine if the
        store verifies again."""
        with self._lock:
            until = handle.quarantined_until
            if until is None:
                return
            now = time.monotonic()
            if now < until:
                reason = handle.quarantine_reason or "recent read failures"
                raise ServeError(
                    503,
                    f"store {handle.spec.path!r} is quarantined: {reason}",
                    retry_after=until - now,
                )
        ok, reason = handle.verify()  # cooldown over: probe off-lock
        with self._lock:
            if ok:
                if handle.quarantined_until is not None:
                    handle.quarantined_until = None
                    handle.consecutive_failures = 0
                    handle.quarantine_reason = None
                return
            handle.quarantined_until = (
                time.monotonic() + self.store_retry_after
            )
            handle.quarantine_reason = reason
            raise ServeError(
                503,
                f"store {handle.spec.path!r} is quarantined: {reason}",
                retry_after=self.store_retry_after,
            )

    def _store_failure(self, handle: StoreHandle, error: Exception) -> str:
        """Record one read failure against ``handle``; quarantine it
        immediately when its on-disk bytes no longer verify, or after
        ``quarantine_after`` consecutive failures.  Returns the message
        to surface."""
        message = f"store read failed: {error}"
        with self._lock:
            self.store_failures += 1
            handle.consecutive_failures += 1
            quarantine = handle.consecutive_failures >= self.quarantine_after
        if not quarantine:
            ok, reason = handle.verify()
            if not ok:
                quarantine = True
                message = f"store read failed: {reason}"
        if quarantine:
            with self._lock:
                if handle.quarantined_until is None:
                    self.quarantines += 1
                    handle.quarantines += 1
                handle.quarantined_until = (
                    time.monotonic() + self.store_retry_after
                )
                handle.quarantine_reason = message
        return message

    def _result_key(self, handle: StoreHandle, request: QueryRequest) -> tuple:
        try:
            key = self.results.key(
                handle.fingerprint, request.dialect, request.query,
                request.pivot, limit=request.top_k, agg=request.agg,
            )
        except ServeError:
            raise
        except LPathError as error:
            # e.g. an invalid REPRO_KERNELS value in the daemon's
            # environment — a configuration error, reported cleanly.
            raise ServeError(400, str(error))
        if request.dialect != handle.spec.dialect:
            raise ServeError(
                400,
                f"store {handle.spec.path!r} serves dialect "
                f"{handle.spec.dialect!r}, not {request.dialect!r}",
            )
        return key

    def answer_batch(self, params: dict):
        """Admit a whole batch of queries as one unit and return a
        generator streaming one :class:`Answer` per query, in order,
        as each completes (plus a final summary document).

        The batch shares one admission ticket and one deadline; uncached
        members execute through one shared-scan cache
        (:mod:`repro.plan.batch`), so identical scans and common step
        prefixes across the batch run once.  Result-cache integration is
        per-query: members hit and populate the cache individually under
        their own keys.  Validation errors raise :class:`ServeError`
        before anything streams; per-member failures become
        ``{"index": i, "error": ...}`` documents."""
        raw = params.get("queries")
        if not isinstance(raw, list) or not raw:
            raise ServeError(400, "batch body needs a non-empty 'queries' list")
        if len(raw) > MAX_BATCH_QUERIES:
            raise ServeError(
                400,
                f"batch of {len(raw)} queries exceeds the "
                f"{MAX_BATCH_QUERIES}-query ceiling",
            )
        defaults = {
            name: params[name]
            for name in ("dialect", "store", "pivot", "timeout_ms")
            if name in params
        }
        members = []
        for entry in raw:
            if isinstance(entry, str):
                entry = {"query": entry}
            elif not isinstance(entry, dict):
                raise ServeError(
                    400, "each batch entry must be a query string or an object"
                )
            members.append(QueryRequest({**defaults, **entry}))
        handle = self._resolve(members[0].store)
        self._check_store(handle)
        keys = [self._result_key(handle, member) for member in members]
        if any(member.store != members[0].store for member in members):
            raise ServeError(
                400, "all queries in one batch must target the same store"
            )
        self._check_breaker()
        budget = self.timeout
        timeouts = [m.timeout for m in members if m.timeout is not None]
        if timeouts:
            budget = min(budget, *timeouts)
        ticket = _Ticket(time.monotonic() + budget)
        self._admit(ticket)
        return self._stream_batch(handle, members, keys, ticket)

    def _stream_batch(self, handle, members, keys, ticket):
        from ..plan.batch import BatchState

        batch_started = time.perf_counter()
        completed = 0
        try:
            # Compile every uncached member up front (through the plan
            # cache) so the shared-prefix refcounts see the whole batch;
            # a member that fails to compile streams an error document.
            compiled: dict[int, object] = {}
            failures: dict[int, str] = {}
            for index, member in enumerate(members):
                if keys[index] in self.results:  # hit counted on its turn
                    continue
                try:
                    compiled[index] = handle.engine.compile(
                        member.query, pivot=member.pivot,
                        limit=member.top_k, agg=member.agg,
                    )
                except LPathError as error:
                    failures[index] = str(error)
            state = BatchState(list(compiled.values()))
            for index, member in enumerate(members):
                started = time.perf_counter()
                if failures.get(index) is not None:
                    with self._lock:
                        self.errors += 1
                    yield Answer({"index": index, "error": failures[index]})
                    continue
                if ticket.remaining() <= 0:
                    with self._lock:
                        self.timeouts += 1
                    yield Answer({
                        "index": index,
                        "error": "batch exceeded its deadline",
                    })
                    break
                rows = self.results.get_rows(keys[index])
                cached = rows is not None
                try:
                    if not cached:
                        plan = compiled.get(index)
                        if plan is None:
                            # A racing request cached this result after
                            # the upfront pass; recompile is a plan-cache
                            # hit.
                            plan = handle.engine.compile(
                                member.query, pivot=member.pivot,
                                limit=member.top_k, agg=member.agg,
                            )
                        rows = self._shape(state.execute_one(plan))
                        self.results.put_rows(keys[index], rows)
                        with self._lock:
                            self.served += 1
                            handle.consecutive_failures = 0
                except LPathError as error:
                    with self._lock:
                        self.errors += 1
                    yield Answer({"index": index, "error": str(error)})
                    continue
                except (OSError, ValueError) as error:
                    # Same classification as the single-query path: a
                    # store-read failure is counted (and may quarantine
                    # the store), the member streams a clean error, and
                    # the rest of the batch keeps going.
                    with self._lock:
                        self.errors += 1
                    message = self._store_failure(handle, error)
                    yield Answer({
                        "index": index, "error": message, "transient": True,
                    })
                    continue
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                answer = self._page(
                    rows, member, cached, elapsed_ms, keys[index]
                )
                answer.head["index"] = index
                completed += 1
                yield answer
            yield Answer({
                "done": completed == len(members),
                "queries": len(members),
                "completed": completed,
                "elapsed_ms": round(
                    (time.perf_counter() - batch_started) * 1000.0, 3
                ),
            })
        finally:
            self._release()

    @staticmethod
    def _shape(result):
        """An engine result in its cacheable one-buffer shape: a
        :class:`~repro.columnar.result.ResultBatch` as it is, an aggregate
        dict as an :class:`~repro.serve.cache.EncodedAggregate`."""
        if isinstance(result, dict):
            return EncodedAggregate.of(result)
        return result

    def record_latency(self, route: str, seconds: float) -> None:
        """Feed one request's wall time into the per-endpoint window
        (the transport calls this once per handled request)."""
        with self._lock:
            bucket = self._latency.get(route)
            if bucket is None:
                bucket = self._latency[route] = [
                    0, deque(maxlen=LATENCY_WINDOW)
                ]
            bucket[0] += 1
            bucket[1].append(seconds)

    def _endpoint_stats(self) -> dict:
        """Per-endpoint counts and latency percentiles over the recent
        window (caller holds the lock)."""
        endpoints = {}
        for route, (count, samples) in sorted(self._latency.items()):
            ordered = sorted(samples)
            last = len(ordered) - 1
            endpoints[route] = {
                "count": count,
                "p50_ms": round(ordered[int(last * 0.50)] * 1000.0, 3),
                "p99_ms": round(ordered[int(last * 0.99)] * 1000.0, 3),
            }
        return endpoints

    def _execute_uncached(
        self, handle: StoreHandle, request: QueryRequest, key: tuple
    ):
        budget = self.timeout
        if request.timeout is not None:
            budget = min(budget, request.timeout)
        ticket = _Ticket(time.monotonic() + budget)
        self._admit(ticket)
        try:
            future = self._pool.submit(self._run, handle, request, ticket)
            try:
                rows = future.result(timeout=max(ticket.remaining(), 0.0))
            except FutureTimeout:
                ticket.cancelled.set()
                with self._lock:
                    self.timeouts += 1
                self.breaker.record(False)
                raise ServeError(
                    504,
                    f"query exceeded its {budget:g}s deadline "
                    "(still cancelling cooperatively)",
                )
            except QueryCancelled:
                self.breaker.record(False)
                raise ServeError(504, "query was cancelled")
            except ServeError:
                raise
            except LPathError as error:
                with self._lock:
                    self.errors += 1
                if "closed" in str(error):
                    self.breaker.record(False)
                    raise ServeError(503, str(error))
                # A permanent query error: the backend executed fine, so
                # the breaker records a healthy sample.
                self.breaker.record(True)
                raise ServeError(400, str(error))
            except (OSError, ValueError) as error:
                # The mmap read path failed underneath a healthy-looking
                # engine — a dying disk, a truncated or corrupted file,
                # or the mmap_read_error fault point.  Classify, count
                # against the store, maybe quarantine; never a 500.
                with self._lock:
                    self.errors += 1
                self.breaker.record(False)
                message = self._store_failure(handle, error)
                raise ServeError(
                    503, message, retry_after=self.store_retry_after
                )
            self.results.put_rows(key, rows)
            with self._lock:
                self.served += 1
                handle.consecutive_failures = 0
            self.breaker.record(True)
            return rows
        finally:
            self._release()

    def _run(self, handle: StoreHandle, request: QueryRequest, ticket):
        """The worker side: cooperative-cancellation checkpoints wrap
        the engine call (which itself is not interruptible)."""
        ticket.check()  # expired or abandoned while queued in the pool
        rows = self._evaluate(handle, request)
        ticket.check()  # abandoned mid-flight: never cache, never return
        return rows

    @classmethod
    def _evaluate(cls, handle: StoreHandle, request: QueryRequest):
        """One plan run to the cacheable shape (:meth:`_shape`): the
        batch of ``(tid, id)`` rows as the executor emitted it (already
        top-k-truncated under ``top_k``), or an aggregate — the key's
        ``agg`` dimension tells the two apart on the way back out."""
        compiled = handle.engine.compile(
            request.query, pivot=request.pivot,
            limit=request.top_k, agg=request.agg,
        )
        return cls._shape(
            compiled.rows() if request.agg is None else compiled.aggregate()
        )

    def _admit(self, ticket: _Ticket) -> None:
        with self._turnstile:
            if self._draining:
                raise ServeError(503, "server is draining")
            if self._inflight < self.max_inflight:
                self._inflight += 1
                return
            if self._waiting >= self.max_queue:
                self.rejected += 1
                raise ServeError(
                    429,
                    f"server is at capacity ({self.max_inflight} in flight, "
                    f"{self._waiting} queued); retry later",
                )
            self._waiting += 1
            try:
                while self._inflight >= self.max_inflight:
                    remaining = ticket.remaining()
                    if remaining <= 0 or self._draining:
                        status, message = (
                            (503, "server is draining")
                            if self._draining
                            else (504, "query expired while queued")
                        )
                        if status == 504:
                            self.timeouts += 1
                        raise ServeError(status, message)
                    self._turnstile.wait(timeout=remaining)
                self._inflight += 1
            finally:
                self._waiting -= 1

    def _release(self) -> None:
        with self._turnstile:
            self._inflight -= 1
            self._turnstile.notify_all()

    @staticmethod
    def _page(
        rows, request: QueryRequest, cached: bool, elapsed_ms: float,
        key: tuple,
    ) -> Answer:
        if request.agg is not None:
            return Answer({
                "agg": request.agg,
                "aggregate": rows,
                "cached": cached,
                "elapsed_ms": round(elapsed_ms, 3),
            }, "aggregate")
        total = len(rows)
        if request.count:
            return Answer({
                "total": total,
                "count": total,
                "cached": cached,
                "elapsed_ms": round(elapsed_ms, 3),
            })
        window = rows[request.offset:request.offset + request.limit]
        next_offset = request.offset + len(window)
        # The page is encoded by the backend its result key resolved
        # (``compile_options_key`` ends in it).
        kern = native_kernels() if key[-1] == "native" else None
        return Answer({
            "total": total,
            "offset": request.offset,
            "limit": request.limit,
            "matches": window,
            "next_offset": next_offset if next_offset < total else None,
            "cached": cached,
            "elapsed_ms": round(elapsed_ms, 3),
        }, "matches", kern)

    # -- observability ------------------------------------------------------

    def stats(self) -> dict:
        """One self-describing snapshot for the ``/stats`` endpoint."""
        with self._lock:
            server = {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "timeout_seconds": self.timeout,
                "inflight": self._inflight,
                "waiting": self._waiting,
                "draining": self._draining,
                "served": self.served,
                "appends": self.appends,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "errors": self.errors,
                "shed": self.shed,
                "store_failures": self.store_failures,
                "quarantines": self.quarantines,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
            }
            endpoints = self._endpoint_stats()
        return {
            "server": server,
            "endpoints": endpoints,
            "result_cache": self.results.stats,
            "breaker": self.breaker.stats(),
            "kernels": kernel_info(),
            "stores": [
                handle.describe() for handle in self._stores.values()
            ],
        }

    def health(self) -> dict:
        """Liveness: answers as long as the process can run Python —
        never touches the disk, so a sick store can't fail it."""
        with self._lock:
            status = "draining" if self._draining else "ok"
        return {"status": status}

    def readiness(self) -> tuple[bool, dict]:
        """Readiness: actively verify every store's on-disk bytes
        against the fingerprint taken at open.  A store that fails the
        probe is quarantined on the spot; a quarantined store that
        verifies again is restored.  Ready means not draining and at
        least one store healthy — a daemon behind a load balancer keeps
        taking traffic for its healthy stores while a corrupted one
        sits out."""
        with self._lock:
            draining = self._draining or self._closed
        stores = {}
        healthy = 0
        for handle in self._stores.values():
            ok, reason = handle.verify()
            with self._lock:
                if ok:
                    if handle.quarantined_until is not None:
                        handle.quarantined_until = None
                        handle.consecutive_failures = 0
                        handle.quarantine_reason = None
                    healthy += 1
                else:
                    if handle.quarantined_until is None:
                        self.quarantines += 1
                        handle.quarantines += 1
                    handle.quarantined_until = (
                        time.monotonic() + self.store_retry_after
                    )
                    handle.quarantine_reason = reason
                health = handle.health()
                if handle.live is not None:
                    live_status = handle.live.status()
                    health["live"] = {
                        key: live_status[key] for key in (
                            "generation", "delta_rows", "compacting",
                            "compactions", "base_segments",
                            "delta_segments",
                            "segments_reused", "plans_carried",
                            "plans_rebased",
                        )
                    }
                stores[handle.spec.path] = health
        ready = healthy > 0 and not draining
        status = "draining" if draining else ("ok" if ready else "degraded")
        if ready and healthy < len(stores):
            status = "degraded"
        return ready, {
            "status": status,
            "ready": ready,
            "healthy_stores": healthy,
            "stores": stores,
        }

    # -- lifecycle ----------------------------------------------------------

    def close(self, drain_timeout: float = 10.0) -> None:
        """Stop admitting, drain in-flight queries (bounded by
        ``drain_timeout``), then release the pool and every engine.
        Idempotent — and engine ``close()`` is idempotent below it."""
        with self._turnstile:
            self._draining = True
            self._turnstile.notify_all()
            deadline = time.monotonic() + max(drain_timeout, 0.0)
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._turnstile.wait(timeout=remaining)
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=False)
        for handle in self._stores.values():
            if handle.live is not None:
                handle.live.close()  # compactor, engines, maps, lock
            else:
                handle.engine.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
