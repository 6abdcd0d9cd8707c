"""Property: small random soaks hold every invariant under both drivers
and replay byte for byte from their seed."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hardening.soak import SoakConfig
from tests.hardening.soak_helpers import seeded_soak


def period(low: int, high: int):
    """A drill period: 0 (disabled) or every ``low..high`` negotiations."""
    return st.one_of(st.just(0), st.integers(low, high))


@st.composite
def soak_configs(draw) -> dict:
    shards = draw(st.integers(0, 3))
    return dict(
        seed=draw(st.integers(0, 2**16)),
        negotiations=draw(st.integers(10, 30)),
        roles=draw(st.integers(2, 4)),
        burst_every=draw(period(5, 15)),
        byzantine_every=draw(period(3, 10)),
        retract_every=draw(period(3, 10)),
        cluster_shards=shards,
        node_kill_every=draw(period(3, 10)) if shards else 0,
    )


@settings(
    max_examples=5, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(soak_configs())
def test_random_soaks_hold_invariants_and_replay(overrides):
    for asyncio_mode in (False, True):
        config = SoakConfig(asyncio_mode=asyncio_mode, **overrides)
        first = seeded_soak(config)
        assert first.ok, first.to_json()
        assert seeded_soak(config).to_json() == first.to_json()
