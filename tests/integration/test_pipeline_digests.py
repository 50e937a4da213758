"""The run pipeline reproduces the per-tool runners it replaced.

Every digest below was captured at the commit *before* ``repro.scenario``
existed, from ``chaos.scenarios.run_scenario`` (its own instrument
sequence) and ``bench.scenarios.run_fig5_experiment`` (profiler installed
through ``prepare``, Pi cost model). The pipeline must reproduce them
byte for byte: they are the proof that folding three runners into one
moved nothing. A digest that changes here is a behaviour change of the
simulation or of an instrument's attach point — regenerate the goldens
and BENCH baselines in the same change, or not at all.
"""

from __future__ import annotations

import pytest

from repro.bench.scenarios import FIG5
from repro.chaos import run_scenario
from repro.prof import profile_digest
from repro.scenario import run

#: (scenario, instrument) -> (trace digest, trace records), seed 0.
TRACE_DIGESTS = {
    ("broker_restart", "observe"): (
        "3949aa9e3b28a03a82ba1d1ffbcc3a7079f7adaa9bd7ad3aafb10a61b99f4e41",
        4295,
    ),
    ("broker_restart", "plain"): (
        "c87e10d9510932ef023e9b771bc2696f0899c825ba29d3be3c692104ca6aa04b",
        3408,
    ),
    ("broker_restart", "profile"): (
        "954aa5f86bbd820a59e6ead32e64106b2505d2584c3cd8a4b131a074beaa4387",
        3439,
    ),
    ("broker_restart", "slo"): (
        "fab6bd5d8b4ed38116808607b7fe5feb1eeac7cf35c70c321f41410cc4927ffa",
        4322,
    ),
    ("bursty_wlan", "observe"): (
        "4e2bafa20fca53a8d29e4438a814a2f16d60eeb5ad66dd5390b2f3b33aad22d8",
        3875,
    ),
    ("bursty_wlan", "plain"): (
        "069258c4dfb4c70092a01d957ca0d6aa3eda74f108ce6457642c14add2ed5ef1",
        3098,
    ),
    ("bursty_wlan", "profile"): (
        "2c1b2a33674eaaa76f50a3010503462e17a093cf615792e55295aebc0d19797b",
        3125,
    ),
    ("bursty_wlan", "slo"): (
        "486e6d2361bf45064780cad2d6726c6da164c0bff946558c5929b5d5cfec4bbe",
        3885,
    ),
    ("failover", "observe"): (
        "ea78800df2f8e4fbeeac3ad2bf0fc4491d6ca8bea0f037b6863a1d8bdc92c5ee",
        4441,
    ),
    ("failover", "plain"): (
        "25849f34629a098b9dad13ad3492dd2b0d47c24a7c8f4fe75737aa660504a8c7",
        3571,
    ),
    ("failover", "profile"): (
        "67d7fd607ef4cc20e8f11a5514bb0375ff3d20823f5470c2216f862593ab7810",
        3602,
    ),
    ("failover", "slo"): (
        "d1fc7a7964f2d476543eccaf095312f56b92749e43a1fd2075ba98e4ff6243c8",
        4472,
    ),
    ("module_crash_failover", "observe"): (
        "2d4a6df642fd7f1c4e087f646a188972be68045175fbf7eebe9c88393d25d805",
        3669,
    ),
    ("module_crash_failover", "plain"): (
        "e0efc02d334ac0c69209bb5880531d8c118b92aa3eb66fef0b0715a4027727ff",
        2916,
    ),
    ("module_crash_failover", "profile"): (
        "40e310f8c2a00939a8e889ec2329ae2d870f66d0fa6e19df280d61ea5ef682ba",
        2943,
    ),
    ("module_crash_failover", "slo"): (
        "8fa4c373b8548cc71bf15ca3f4b52bbdb78c3db99e60f880bff2c4776f7c1916",
        3698,
    ),
    ("node_restart_rejoin", "observe"): (
        "ddbd8c2f557802daffd3c220881d5e18d0669d2c32891fa8230da90a6ad9a731",
        3991,
    ),
    ("node_restart_rejoin", "plain"): (
        "cf692a9ab34bde76796854fec1b72a5ae089b26ca19de5256ca324dc7a61900e",
        3223,
    ),
    ("node_restart_rejoin", "profile"): (
        "bc947a49f0d0b9d94d5b22b618fd69f16054ce26be1deebd9ced643a7a007840",
        3250,
    ),
    ("node_restart_rejoin", "slo"): (
        "df22030272fd08e593c74fe66714c8f6dabebf6f07a450fd8cf870a849bd0d58",
        4007,
    ),
    ("partition_heal", "observe"): (
        "855294dddf5c75abd9fc00ae40ccca9f2e76e97fba3df886d1bfa254ef57276f",
        3940,
    ),
    ("partition_heal", "plain"): (
        "60f86e7d301495a5519efce385166bdd412e8608bdeb8bfe65166dee06d17d78",
        3153,
    ),
    ("partition_heal", "profile"): (
        "4da08b2bfe5e8b421da7c7da289599321e4a47fc9637cfcaa265b99ae41b08d0",
        3180,
    ),
    ("partition_heal", "slo"): (
        "63612b1e672eec4f6bb020bd716dfac552cdbd4d75d120fd1dfb1ff0439b8c86",
        3950,
    ),
    ("sensor_flap", "observe"): (
        "ea6ac37a383263595be499bf1529c8060af472e8810d6bbe13e51f989bd52d44",
        3573,
    ),
    ("sensor_flap", "plain"): (
        "d1596541b4b005a1a8896f639c58d26f0718a3c476d444ecfcded77f6a239a62",
        2888,
    ),
    ("sensor_flap", "profile"): (
        "2837d120ae50ff5368a0c56588b02d935b9cc9e238e9f1c671d86396e836ef19",
        2915,
    ),
    ("sensor_flap", "slo"): (
        "d950876254065fc7a6eb292d45202b5bb96e14e46b77025a0d693b8cb9d2fe76",
        3583,
    ),
}

#: Profile digest and profiled event count. The failover count includes the
#: inflight tables' wake-ups that found nothing due, which one timer per
#: message never executed (it was cancelled): 7 086 + 123; its digest is the
#: parent commit's.
FAILOVER_PROFILE = (
    "e38fea467a7d8ebe4299554613a3b4326b2f8f292805de8d952fb2f9f9b8f97a",
    7209,
)
#: Regenerated once for the placement change (fig5 under the Pi model is
#: placed by predicted CPU load): 8c3994ff…, 14 286 -> 1dab2021…, 16 116.
#: `pi-analysis` now serves the records it used to queue, so 5 s hold more
#: downstream events.
FIG5_PROFILE_5S = (
    "1dab2021195931ca026ee8c7c5e2c37c8c28260ac51924c3418d7f7b6cdcb3ed",
    16116,
)


@pytest.mark.parametrize(("name", "instrument"), sorted(TRACE_DIGESTS))
def test_chaos_trace_digest_matches_parent_commit(name, instrument):
    flags = {} if instrument == "plain" else {instrument: True}
    result = run_scenario(name, seed=0, **flags)
    assert (result.trace_digest, result.trace_records) == TRACE_DIGESTS[
        (name, instrument)
    ]


def test_failover_profile_digest_matches_parent_commit():
    profiler = run_scenario("failover", seed=0, profile=True).profiler
    assert (profile_digest(profiler), profiler.events_profiled) == FAILOVER_PROFILE


def test_fig5_profile_digest_matches_parent_commit():
    """Seed 55 under the Pi calibration; the 30 s digest is pinned by the
    committed ``BENCH_fig5.json`` baseline."""
    profiler = run(FIG5, seed=55, duration_s=5.0, profile=True).runtime.prof
    assert (profile_digest(profiler), profiler.events_profiled) == FIG5_PROFILE_5S
