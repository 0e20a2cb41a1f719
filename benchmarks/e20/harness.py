"""What the four workloads share: the recorder that times operations, the
statistics over its samples, the input digest and the host calibration loop."""

import gc
import hashlib
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns, thread_time_ns

#: the part of a traced run's timed operations that runs before the wrappers
#: are installed; the traced remainder is compared with it for the overhead
REFERENCE_SHARE = 0.25
#: the burst's time on the reference host; end-to-end times are scaled to it
REFERENCE_BURST_MS = 2.0


def at_reference_speed(cpu, *bursts_ms):
    """CPU time as it would have been had the calibration bursts around it
    taken :data:`REFERENCE_BURST_MS`."""
    return cpu * REFERENCE_BURST_MS * len(bursts_ms) / sum(bursts_ms)


def burst_ms(rounds=1_500):
    """One calibration burst between operations, in ms (~1.6 ms).

    Pure Python and independent of the engine, but with the engine's habits —
    it allocates dicts and tuples, hashes, builds a set and sorts — because
    the host's slow phases hit memory-heavy code harder than arithmetic: in a
    side-by-side trial, scaling by this loop left a third of the spread that
    scaling by an arithmetic loop left.  The collector is off inside the
    burst, or the burst would time a collection of the engine's heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter_ns()
        rows = []
        for i in range(rounds):
            values = {"a": i, "b": "x%d" % (i & 63), "c": i * 0.5}
            rows.append((hash(frozenset(values.items())), values))
        {key for key, _ in rows}  # built and dropped: the work is the point
        rows.sort(key=lambda row: row[1]["b"])
        return (perf_counter_ns() - started) / 1e6
    finally:
        if collecting:
            gc.enable()


class Recorder:
    """Times root operations, keeps their samples by class, counts failures.

    An operation *fails* when it raises unexpectedly or its answer disagrees
    with the harness's model; the workloads report both through
    :meth:`check`.  ``units`` is the work an operation class handled (rows for
    bulk classes, 1 per single-row operation), ``scanned``/``produced`` the
    engine's own row counters where a workload passes them on.

    The sandbox's speed drifts by tens of percent within seconds, and its
    fsync latency by 2× for minutes.  So the end-to-end numbers are made from
    each operation's *CPU time* (``thread_time``), which leaves out the time
    blocked on the device and the time the process was not scheduled, scaled
    to a reference host speed: the workloads call :meth:`mark` between blocks
    of operations, each mark runs one calibration burst, and :meth:`finish`
    scales every sample by the two bursts around its block (``normal``).
    ``samples`` keeps the wall times as measured, for the report and the
    per-layer metrics.
    """

    def __init__(self):
        self.tracer = None              # set while spans are recorded
        self._pending_tracer = None
        self.samples = defaultdict(list)      # class -> [ns] of wall time
        self.cpu_samples = defaultdict(list)  # class -> [ns] of thread CPU time
        self.normal = {}                      # class -> [ns] of CPU at reference speed
        self.bursts = []                      # calibration burst times, ms
        self._blocks = defaultdict(list)      # class -> index of the next burst
        self.unit_samples = defaultdict(list)  # class -> work units per sample
        self.scanned = defaultdict(int)
        self.produced = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        #: samples per class taken before tracing started (traced runs only)
        self.reference_counts = None

    # -- tracing hand-over -------------------------------------------------------------

    def trace_with(self, tracer):
        """Arm a traced run: spans start at :meth:`start_tracing`."""
        self._pending_tracer = tracer

    def start_tracing(self):
        if self._pending_tracer is None or self.tracer is not None:
            return
        self.reference_counts = {name: len(values)
                                 for name, values in self.samples.items()}
        self.tracer = self._pending_tracer
        self.tracer.install()

    def stop_tracing(self):
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer = None
            self._pending_tracer = None

    def sliced(self, items, block=1):
        """Iterate ``items`` with a :meth:`mark` before every ``block`` of
        them; a traced run starts recording spans after the first
        :data:`REFERENCE_SHARE`."""
        cut = (int(len(items) * REFERENCE_SHARE)
               if self._pending_tracer is not None else -1)
        for position, item in enumerate(items):
            if position == cut:
                self.start_tracing()
            if position % block == 0:
                self.mark()
            yield item

    # -- host-speed calibration ----------------------------------------------------------

    def mark(self, bursts=1):
        """A block boundary: the mean of ``bursts`` calibration bursts (more
        than one where the operations around it are long and few)."""
        self.bursts.append(sum(burst_ms() for _ in range(bursts)) / bursts)

    def finish(self):
        """Close the last block and scale the samples to the reference speed:
        a sample counts as if the host had run the calibration burst in
        :data:`REFERENCE_BURST_MS` while its block ran."""
        self.mark(bursts=3)
        bursts = self.bursts
        for name in self.samples:
            self.normal[name] = [
                at_reference_speed(cpu, bursts[max(0, block - 1)], bursts[block])
                for cpu, block in zip(self.cpu_samples[name], self._blocks[name])]

    # -- timing --------------------------------------------------------------------------

    def timed(self, operation_class, function, *args, units=1):
        """Run ``function(*args)`` as one root operation and return its value."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_root(operation_class)
        cpu_started = thread_time_ns()
        started = perf_counter_ns()
        try:
            return function(*args)
        finally:
            elapsed = perf_counter_ns() - started
            cpu = thread_time_ns() - cpu_started
            if tracer is not None:
                tracer.end_root()
            self.samples[operation_class].append(elapsed)
            self.cpu_samples[operation_class].append(cpu)
            self._blocks[operation_class].append(len(self.bursts))
            self.unit_samples[operation_class].append(units)
            self.attempted += 1

    def attempt(self, operation_class, function, *args, units=1):
        """:meth:`timed`, but an operation that raises counts as failed and
        yields ``None``."""
        try:
            return self.timed(operation_class, function, *args, units=units)
        except Exception as exc:
            self.check(False, "{} raised {!r}".format(operation_class, exc))
            return None

    def note_rows(self, operation_class, result):
        """Fold a query result's scan/produce counters into the class totals."""
        self.scanned[operation_class] += result.stats.tuples_scanned
        self.produced[operation_class] += len(result.tuples)

    def check(self, condition, message):
        """Count one failed operation (or verification step) when false."""
        if not condition:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return condition

    # -- statistics ------------------------------------------------------------------------

    def block_rate(self, classes=None, per_unit=False):
        """Operations (or work units) per second, as the median over the
        blocks of each block's own rate: one slow block moves a mean, not
        this."""
        blocks = defaultdict(lambda: [0, 0.0])
        for name, values in self.normal.items():
            if classes is None or name in classes:
                for value, units, block in zip(
                        values, self.unit_samples[name], self._blocks[name]):
                    blocks[block][0] += units if per_unit else 1
                    blocks[block][1] += value
        return statistics.median(
            count / nanoseconds * 1e9 for count, nanoseconds in blocks.values())

    def units(self, classes):
        return sum(sum(self.unit_samples.get(name, ())) for name in classes)

    def p50_us(self, operation_class, raw=False):
        values = (self.samples if raw else self.normal).get(operation_class)
        return statistics.median(values) / 1e3 if values else 0.0

    def p50_us_per_unit(self, operation_class):
        """Median over the class's operations of time ÷ work units."""
        values = self.normal.get(operation_class)
        if not values:
            return 0.0
        return statistics.median(
            value / units for value, units
            in zip(values, self.unit_samples[operation_class])) / 1e3

    def tail(self, operation_class):
        """``(percentile, raw value_us)`` — the highest percentile with at
        least ten samples beyond it, or ``None`` when no percentile has."""
        values = self.samples.get(operation_class, ())
        for percentile in (99.9, 99, 95, 90):
            beyond = int(len(values) * (100 - percentile) / 100)
            if beyond >= 10:
                ordered = sorted(values)
                return percentile, ordered[len(values) - beyond - 1] / 1e3
        return None

    def percentile_us(self, operation_class, percentile):
        """A raw (unscaled) percentile."""
        values = sorted(self.samples.get(operation_class, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1,
                          int(len(values) * percentile / 100))] / 1e3

    def reference_count(self, operation_class):
        """Samples of the class taken before tracing started."""
        return (self.reference_counts or {}).get(operation_class, 0)

    def overhead_share(self):
        """1 − (untraced time the traced operations would have taken ÷ the time
        they took), from per-class mean latencies of the reference slice."""
        if self.reference_counts is None:
            return 0.0
        expected = actual = 0.0
        for name, values in self.normal.items():
            cut = self.reference_count(name)
            reference, traced = values[:cut], values[cut:]
            if reference and traced:
                expected += sum(reference) / len(reference) * len(traced)
                actual += sum(traced)
        return 1.0 - expected / actual if actual else 0.0

    def table(self):
        """Human-readable lines: class, sample count, median at the reference
        speed, median and supported tail as measured."""
        lines = []
        for name in sorted(self.samples):
            tail = self.tail(name)
            lines.append(
                "  {:<16} n={:<6} p50={:>11.1f} us  raw p50={:>11.1f} us  {}".format(
                    name, len(self.samples[name]), self.p50_us(name),
                    self.p50_us(name, raw=True),
                    "raw p{:g}={:.1f} us".format(*tail) if tail else "(no tail: n<100)"))
        return lines


def digest(*parts):
    """A hash of the generated inputs: same seed, same digest."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(json.dumps(part, sort_keys=True, default=repr).encode("utf-8"))
    return hasher.hexdigest()[:16]


def calibration_ms(rounds=200_000, attempts=3):
    """A fixed pure-Python loop (best of a few attempts); its time compares
    hosts and, taken before and after a workload, shows whether the host's
    speed drifted during the run."""
    best = None
    for _ in range(attempts):
        started = perf_counter_ns()
        total = 0
        for i in range(rounds):
            total += i * i % 7
        elapsed = perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e6


def fence():
    """GC stays enabled, as users have it; one full collection before a timed
    phase keeps garbage of the set-up out of it."""
    gc.collect()


def engine_counters(database):
    """The engine's own public counters, flattened: the metric registry's
    counters and max gauges, the plan cache and the statistics version."""
    snapshot = database.metrics()
    flat = {}
    for name, value in snapshot["metrics"].items():
        if isinstance(value, (int, float)):
            flat[name] = value
        elif isinstance(value, dict) and "max" in value and "observations" in value:
            flat[name + ".max"] = value["max"] or 0
    for name in ("hits", "misses", "size"):
        flat["plan_cache." + name] = snapshot["plan_cache"][name]
    flat["statistics.version"] = database.statistics_version
    return flat


def counter_delta(before, after):
    """``after − before`` per counter; maxima (``*.max``) keep the later value."""
    return {name: value if name.endswith(".max") else value - before.get(name, 0)
            for name, value in after.items()}


class Workload:
    """One benchmark workload: set-up, a timed phase, verification.

    ``SLOTS`` names the four operation classes behind the end-to-end metrics
    ``op1_p50_us`` … ``op4_p50_us`` (every workload has to report every
    end-to-end metric, so the per-class medians share four slot names);
    ``ROLES`` tells the per-layer formulas which classes are short calls,
    row writes, keyed look-ups and plan-cache misses in this workload.
    """

    name = ""
    SLOTS = ()
    ROLES = {}

    def __init__(self, seed, seconds, scale, workdir):
        self.seed = seed
        #: operations (or rows) the timed phase handles per unit of op rate
        self.budget = seconds * scale
        self.scale = scale
        self.workdir = workdir

    def sized(self, per_second, minimum=1):
        """An operation count derived from ``--seconds`` (and ``--scale``)."""
        return max(minimum, int(round(per_second * self.budget)))

    def rows(self, count, minimum=20):
        """A table size: fixed per workload, shrunk only by ``--scale``."""
        return max(minimum, int(round(count * self.scale)))

    def setup(self):
        """Generate inputs from the seed, load, ANALYZE, warm up."""
        raise NotImplementedError

    def teardown(self):
        """Release what :meth:`setup` opened (called before a repeated set-up
        and at the end)."""

    def run(self, rec):
        """The timed phase: every operation goes through ``rec.timed``."""
        raise NotImplementedError

    def verify(self, rec):
        """Check the engine's answers after the timed phase."""

    def inputs(self):
        """The generated inputs, for the digest."""
        raise NotImplementedError

    def ops_per_s(self, rec):
        return rec.block_rate()

    def slot_us(self, rec, operation_class):
        return rec.p50_us(operation_class)

    def layer_counters(self, rec, summary):
        """Per-layer metrics that come from counters rather than spans."""
        return {}
