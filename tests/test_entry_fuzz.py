"""Entry-point fuzzing: invalid input fails eagerly, with a typed error.

Each entry point below takes user-facing values (CLI flags, ``REPRO_*``
variables, ``RunSpec`` fields), or reads files from outside the program
(the on-disk store entries).  Hypothesis draws arbitrary values for
every argument: NaN, infinities, bools, negatives, zeros, huge numbers
(including ints no float can hold), strings and None.  Every draw must
either build an object that is usable downstream or raise the entry
point's typed error (``ValueError``, or its subclass ``SettingsError``),
never ``TypeError``, ``ZeroDivisionError`` or ``OverflowError``.  The
valid objects are then exercised through what consumes them (cache keys,
labels, the Zipf sampler, the sweep executor's wait and sleep bounds), so
a value accepted here cannot fail later for want of range checking.
"""

import math
import tempfile
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.faults import FaultPlan
from repro.core.parallel import ResultCache
from repro.settings import Settings, SettingsError
from repro.store import MAGIC
from repro.simulator.topology import IslandTopology
from repro.workloads.contention import SkewSpec, ZipfGenerator
from repro.workloads.tracestore import TraceStore

#: Awkward numbers every numeric argument should survive.
EDGES = st.sampled_from([
    0, -0.0, 1, -1, 2, 3, 0.5, 1.0, 1.5, 2 ** 63, 10 ** 400, -10 ** 400,
    1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf,
])

#: Arbitrary values for an argument of any declared type; half the draws
#: are the edges above.
ANY = st.one_of(
    EDGES,
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=True, allow_infinity=True),
              st.text(max_size=6), st.complex_numbers(max_magnitude=10)),
)


def _one_bad(**valid):
    """Keyword arguments that are all valid except one, drawn from
    :data:`ANY`: the checks are per argument, so this finds a missing
    one far sooner than drawing every argument at random."""
    return st.sampled_from(sorted(valid)).flatmap(
        lambda bad: st.fixed_dictionaries({
            name: ANY if name == bad else st.sampled_from(values)
            for name, values in valid.items()}))


@settings(max_examples=300, deadline=None)
@given(kwargs=_one_bad(n_sockets=(1, 2, 4), remote_l2_latency=(1.0, 3.0),
                       remote_mem_latency=(1.0, 1.5),
                       cores_per_island=(None, 2, 4)),
       chip=st.one_of(st.sampled_from([4, 8]), st.integers()))
@example(kwargs={"n_sockets": 2, "remote_l2_latency": 10 ** 400,
                 "remote_mem_latency": 1.5, "cores_per_island": None},
         chip=4)
def test_island_topology_is_valid_or_value_error(kwargs, chip):
    try:
        topo = IslandTopology(**kwargs)
    except ValueError:
        return
    hash(topo.key())
    topo.describe()
    try:
        assert topo.island_cores(chip) * topo.n_sockets == chip
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(kwargs=_one_bad(theta=(0.0, 0.9), hot_warehouses=(None, 2),
                       cross_rate=(None, 0.3)))
@example(kwargs={"theta": 10 ** 400, "hot_warehouses": None,
                 "cross_rate": None})
@example(kwargs={"theta": 2 ** 63, "hot_warehouses": None,
                 "cross_rate": None})
@example(kwargs={"theta": 1e308, "hot_warehouses": None, "cross_rate": None})
@example(kwargs={"theta": 0.9, "hot_warehouses": None, "cross_rate": True})
def test_skew_spec_is_valid_or_value_error(kwargs):
    try:
        spec = SkewSpec(**kwargs)
    except ValueError:
        return
    hash(spec.key())
    spec.describe()
    if spec.theta > 0:
        # The TPC-C driver samples items and customers with it.
        zipf = ZipfGenerator(64, spec.theta)
        assert zipf._cdf[-1] == 1.0


#: Raw environment text: numbers spelled every way, suffixes, words.
RAW = st.one_of(
    st.text(max_size=12),
    st.sampled_from([
        "nan", "inf", "-inf", "1e999", "-1e999", "1e300", "0", "-0", "-1",
        "0.0", "True", "on", "9" * 5000, "infk", "nanm", "1e300g", "k",
        "explode@0", "hang@0:1e300", "exec~2", "seed=x", "crash@1;exec@0",
    ]),
)

VARIABLES = ("REPRO_SCALE", "REPRO_JOBS", "REPRO_CACHE_DIR",
             "REPRO_CACHE_BUDGET", "REPRO_TIMEOUT", "REPRO_RETRIES",
             "REPRO_BACKOFF", "REPRO_FAIL_FAST", "REPRO_TELEMETRY",
             "REPRO_TRACE_DIR", "REPRO_FAULTS")


@settings(max_examples=600, deadline=None)
@given(environ=st.dictionaries(st.sampled_from(VARIABLES), RAW,
                               max_size=len(VARIABLES)))
@example(environ={"REPRO_TIMEOUT": "inf"})
@example(environ={"REPRO_BACKOFF": "1e300"})
@example(environ={"REPRO_FAULTS": "hang@0:1e300"})
@example(environ={"REPRO_FAULTS": "explode@0"})
def test_settings_from_env_is_valid_or_settings_error(environ):
    try:
        parsed = Settings.from_env(environ)
    except SettingsError as err:
        assert err.variable in environ
        return
    # The sweep executor waits on pool futures for up to ``timeout`` and
    # sleeps ``backoff`` before a retry, and a ``hang`` fault sleeps its
    # argument: all must be waitable.
    waits = [parsed.timeout, parsed.backoff]
    if parsed.faults is not None:
        waits += [rule.arg for rule in FaultPlan.parse(parsed.faults).rules]
    for seconds in waits:
        assert seconds is None or 0 <= seconds <= threading.TIMEOUT_MAX


@settings(max_examples=300, deadline=None)
@given(layer=st.sampled_from([ResultCache, TraceStore]),
       blob=st.one_of(st.binary(max_size=600),
                      st.binary(max_size=600).map(MAGIC.__add__)))
@example(layer=ResultCache, blob=b"")
@example(layer=TraceStore, blob=MAGIC + bytes(44))
def test_arbitrary_bytes_at_an_entry_path_are_a_counted_miss(layer, blob):
    """Whatever sits at an entry's path, ``get`` returns None, counts one
    error and one miss, unlinks the file, and raises nothing."""
    key = ("fuzz", 1)
    with tempfile.TemporaryDirectory() as root:
        store = layer(root)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert store.get(key) is None
        assert (store.errors, store.misses, store.hits) == (1, 1, 0)
        assert not path.exists()
