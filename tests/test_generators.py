"""Unit tests for the synthetic dataset generators (repro.streams.generators)."""

import hashlib
import random

import pytest

from repro import make_d3_syn, make_d4_syn, seconds
from repro.streams.disorder import NoDelayModel
from repro.streams.generators import (
    AttributeSpec,
    SyntheticStreamConfig,
    generate_dataset,
    generate_stream,
)
from repro.workloads import interleaved_dataset


def _small_d3(**overrides):
    kwargs = dict(
        duration_ms=seconds(10),
        seed=3,
        inter_arrival_ms=100,
        max_delay_ms=2_000,
        skew_change_interval_ms=(1_000, 2_000),
    )
    kwargs.update(overrides)
    return make_d3_syn(**kwargs)


class TestGenerateStream:
    def _config(self, delay_model=None):
        return SyntheticStreamConfig(
            attributes=[AttributeSpec(name="a1", time_varying=False)],
            delay_model=delay_model or NoDelayModel(),
            inter_arrival_ms=100,
        )

    def test_arrival_clock_advances_by_gap(self):
        tuples = generate_stream(0, self._config(), seconds(2), random.Random(1))
        arrivals = [t.arrival for t in tuples]
        assert arrivals == list(range(100, 2001, 100))

    def test_in_order_without_delay(self):
        tuples = generate_stream(0, self._config(), seconds(2), random.Random(1))
        timestamps = [t.ts for t in tuples]
        assert timestamps == sorted(timestamps)
        assert all(t.ts == t.arrival for t in tuples)

    def test_sequence_numbers_consecutive(self):
        tuples = generate_stream(0, self._config(), seconds(1), random.Random(1))
        assert [t.seq for t in tuples] == list(range(len(tuples)))

    def test_timestamps_never_negative(self):
        from repro.streams.disorder import ConstantDelayModel

        config = self._config(ConstantDelayModel(5_000))
        tuples = generate_stream(0, config, seconds(2), random.Random(1))
        assert all(t.ts >= 0 for t in tuples)

    def test_values_within_domain(self):
        tuples = generate_stream(0, self._config(), seconds(5), random.Random(1))
        assert all(1 <= t["a1"] <= 100 for t in tuples)


class TestD3Syn:
    def test_three_streams(self):
        ds = _small_d3()
        assert ds.num_streams == 3
        assert all(len(ds.stream_tuples(i)) > 0 for i in range(3))

    def test_schema_is_ts_a1(self):
        ds = _small_d3()
        assert all(set(t.values) == {"a1"} for t in ds)

    def test_delays_bounded_by_max(self):
        ds = _small_d3()
        assert ds.max_delay() <= 2_000

    def test_stream_one_more_disordered_than_others(self):
        # Paper: z_1^d = 2.0 < z_2^d = z_3^d = 3.0, so stream 0 has more
        # and larger delays on average.
        ds = make_d3_syn(
            duration_ms=seconds(120),
            seed=5,
            inter_arrival_ms=20,
            max_delay_ms=5_000,
        )

        def disorder_fraction(stream):
            tuples = ds.stream_tuples(stream)
            local = 0
            late = 0
            for t in tuples:
                if t.ts >= local:
                    local = t.ts
                else:
                    late += 1
            return late / len(tuples)

        assert disorder_fraction(0) > disorder_fraction(1)

    def test_deterministic_per_seed(self):
        a = _small_d3(seed=11)
        b = _small_d3(seed=11)
        assert [t.ts for t in a] == [t.ts for t in b]
        assert [t.get("a1") for t in a] == [t.get("a1") for t in b]

    def test_different_seeds_differ(self):
        a = _small_d3(seed=1)
        b = _small_d3(seed=2)
        assert [t.ts for t in a] != [t.ts for t in b]

    def test_wrong_skew_count_rejected(self):
        with pytest.raises(ValueError):
            make_d3_syn(duration_ms=1_000, delay_skews=(1.0, 2.0))

    def test_nominal_rates_recorded(self):
        ds = _small_d3()
        assert ds.nominal_rates == [10.0, 10.0, 10.0]  # 1000/100 per second


class TestD4Syn:
    def _small_d4(self):
        return make_d4_syn(
            duration_ms=seconds(10),
            seed=3,
            inter_arrival_ms=100,
            max_delay_ms=2_000,
            skew_change_interval_ms=(1_000, 2_000),
        )

    def test_four_streams_star_schema(self):
        ds = self._small_d4()
        assert ds.num_streams == 4
        schemas = [set(ds.stream_tuples(i)[0].values) for i in range(4)]
        assert schemas == [{"a1", "a2", "a3"}, {"a1"}, {"a2"}, {"a3"}]

    def test_wrong_skew_count_rejected(self):
        with pytest.raises(ValueError):
            make_d4_syn(duration_ms=1_000, delay_skews=(1.0,))

    def test_arrival_order_is_merged(self):
        ds = self._small_d4()
        arrivals = [t.arrival for t in ds]
        assert arrivals == sorted(arrivals)


class TestTimeVaryingSkew:
    def test_skew_changes_alter_value_distribution(self):
        # With changes enabled and a long run, the frequency of the most
        # common value should differ between halves at least sometimes;
        # at minimum the generator must not crash and must stay in-domain.
        config = SyntheticStreamConfig(
            attributes=[
                AttributeSpec(
                    name="a1",
                    initial_skew=0.0,
                    skew_range=(4.0, 5.0),
                    change_interval_ms=(500, 501),
                )
            ],
            delay_model=NoDelayModel(),
            inter_arrival_ms=10,
        )
        tuples = generate_stream(0, config, seconds(4), random.Random(7))
        first_half = [t["a1"] for t in tuples[: len(tuples) // 2]]
        second_half = [t["a1"] for t in tuples[len(tuples) // 2 :]]
        # After the switch to a highly skewed regime, value 1 dominates.
        assert second_half.count(1) / len(second_half) > first_half.count(1) / len(
            first_half
        )


class TestGenerateDataset:
    def test_streams_independent_of_each_other(self):
        def config():
            return SyntheticStreamConfig(
                attributes=[AttributeSpec(name="a1", time_varying=False)],
                delay_model=NoDelayModel(),
                inter_arrival_ms=50,
            )

        two = generate_dataset([config(), config()], seconds(2), seed=9)
        three = generate_dataset([config(), config(), config()], seconds(2), seed=9)
        # Adding a third stream must not perturb the first two.
        assert [t.ts for t in two.stream_tuples(0)] == [
            t.ts for t in three.stream_tuples(0)
        ]
        assert [t.get("a1") for t in two.stream_tuples(1)] == [
            t.get("a1") for t in three.stream_tuples(1)
        ]


#: The engine tests' interleaved datasets, one per module that builds
#: one, at that module's default arguments: ``(name, tuples, gap,
#: max delay, domain, seed, zipf)`` and the digest of the arrival
#: sequence.  The smoke runs the transport tests' parameters.
INTERLEAVED_PINS = [
    (("ingest-11", 900, 9, 300, 48, 11, 1.1), "207e1325320a030c"),
    (("exec-5", 1_500, 12, 300, 48, 5, 1.2), "0d44cdb023a78061"),
    (("zipf-1.2", 3_000, 15, 400, 64, 5, 1.2), "d123eb4830499134"),
    (("shm-7", 900, 9, 300, 48, 7, 1.1), "f64346eec2d5e6bb"),
    (("smoke-7", 900, 9, 300, 48, 7, 1.1), "f64346eec2d5e6bb"),
    (("socket-7", 600, 9, 300, 48, 7, 1.1), "3947ffe407d7065e"),
    (("sup-5", 1_200, 9, 300, 48, 5, 1.1), "8d1972bb9c509483"),
]


@pytest.mark.parametrize(
    "args, digest", INTERLEAVED_PINS, ids=[args[0] for args, _ in INTERLEAVED_PINS]
)
def test_interleaved_dataset_is_pinned(args, digest):
    """Every byte of the arrival sequence: stream, timestamps, order, keys."""
    name, *params, zipf = args
    dataset = interleaved_dataset(name, *params, zipf=zipf)
    h = hashlib.sha256()
    for t in dataset.arrivals():
        h.update(
            repr(
                (t.stream, t.ts, t.arrival, t.seq, sorted(t.values.items()))
            ).encode()
        )
    assert dataset.name == name
    assert h.hexdigest()[:16] == digest
