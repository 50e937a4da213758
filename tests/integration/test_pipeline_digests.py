"""The run pipeline reproduces the per-tool runners it replaced.

Every digest below was captured at the commit *before* ``repro.scenario``
existed, from ``chaos.scenarios.run_scenario`` (its own instrument
sequence) and ``bench.scenarios.run_fig5_experiment`` (profiler installed
through ``prepare``, Pi cost model). The pipeline must reproduce them
byte for byte: they are the proof that folding three runners into one
moved nothing. A digest that changes here is a behaviour change of the
simulation or of an instrument's attach point — regenerate the goldens
and these pins in the same change, or not at all.

The fig5 profile, fig5 observed and paper-sweep pins are the runs the
drift gate (``lint --calibrate``), the soundness gate (``lint --validate``)
and the Tables II/III harness read; their literals were carried over from
the benchmark records they replace.

``observe`` rows and the fig5 observed pin trace every sensor sample
(``run`` observes at stride 1: its span trees exist to be read), and are
the digests of the commit before spans were head-sampled; ``sampled``
rows install observability at the default stride in ``prepare``. ``slo`` rows run the engine without
observability: it reads each record's age at the sink, not spans.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_paper_experiment
from repro.bench.scenarios import FIG5
from repro.chaos import run_scenario
from repro.obs import enable_observability
from repro.prof import profile_digest
from repro.scenario import run
from repro.sim.trace import trace_digest

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
    ("broker_restart", "sampled"): (
        "1ea9352eac8f865c066c4470c8d2403db49aaca9a3f502c1e88e2df82cb727aa",
        3554,
    ),
    ("broker_restart", "slo"): (
        "6c5b65c7c1cfcf7a04871f2f7b94d5026bf19ed2583c0833665b154be07204ae",
        3435,
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
    ("bursty_wlan", "sampled"): (
        "1e1608be52e52f9d7877cd268e27749888b5371300cfdaf9cd7ec78c1d03496d",
        3228,
    ),
    ("bursty_wlan", "slo"): (
        "8ffba1353ebfe22f3a0a5dd2fccb3f85989e9a2fee337104a19deaea581d9863",
        3108,
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
    ("failover", "sampled"): (
        "b234f77222ab418053b9b5c5b3d7d5292ea13d54087c7095894b9825aaaa9d1b",
        3716,
    ),
    ("failover", "slo"): (
        "343faa1cdabbcd6d2b44b7380a095aa5132e47fed127381a1a849cc7f7ec0fd5",
        3602,
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
    ("module_crash_failover", "sampled"): (
        "765649f63b05095f3205aa4542406eca9f7d84e9ebcf15433271840140041c16",
        3042,
    ),
    ("module_crash_failover", "slo"): (
        "ec89de02968c6fff550c395ee147607e12746308595442253704c14af67c7dbf",
        2945,
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
    ("node_restart_rejoin", "sampled"): (
        "ca7c18f45111e4ba67ef29294caaa955ed1d00b8a31ccc43fa08b3b769027206",
        3352,
    ),
    ("node_restart_rejoin", "slo"): (
        "97ed9e38fa22eb57d3ce40712e31b9818af5b876f2725fb56721a52b32640006",
        3239,
    ),
    # partition_heal: the healed module is no longer re-sent the sub-task it
    # still runs, so 6 records go from every row: mgmt.reinstated, the
    # deploy's 3 wlan.transmit (management to broker, its PUBACK, broker to
    # module-a) and mqtt.broker.forward, and the module's agent.deploy_failed.
    ("partition_heal", "observe"): (
        "1f4a63d4041aedeec3bbf153f6398881bc117a4c7df1e80d7014eb5a88295eb8",
        3934,
    ),
    ("partition_heal", "plain"): (
        "be0f7b4daef9529da67e40f5f319502b1a118a6b56ca9d43424188e8d48402d9",
        3147,
    ),
    ("partition_heal", "profile"): (
        "601805ea2f2ac709b81114c09d10100bc5368d7aa914a593a484c3a107fb8c86",
        3174,
    ),
    ("partition_heal", "sampled"): (
        "23693e56b865ba2217fbefcc93c5d7d6d3e89676b20044d38144f8268af8869e",
        3277,
    ),
    ("partition_heal", "slo"): (
        "334ca9f07a468798d6c46ce66e073e4c254f8922c69a05b179df5653c059f943",
        3157,
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
    ("sensor_flap", "sampled"): (
        "677d55f28e8aa7d41238ba916be9e47cd90889e691be30e09757dbf561ea5203",
        3009,
    ),
    ("sensor_flap", "slo"): (
        "f28e247e82432751ae7180697b846f648e1e4da559326e5f2ba278ce90d12800",
        2898,
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
#: fig5 at its own seed and duration (55, 30 s): ``profile_digest`` and
#: ``events_executed`` copied from the deleted fig5 benchmark record.
FIG5_PROFILE = (
    "0064ed6546ddd810b5d424003de0ae998042ac1708d02be98568128fabb2a2b3",
    70030,
)
#: The observed fig5 run whose flows the soundness gate reads: trace digest
#: and record count, captured before the benchmark record that held its
#: per-flow summaries was deleted.
FIG5_OBSERVED = (
    "b7b2e76b77ce736fb738644f8ea5d3815039db6c49b9093ddc85df8cfe3d3bd7",
    55707,
)
#: ``run_paper_experiment(rate, duration_s=2.5, seed=1, profile=True)``:
#: (train avg, train max, predict avg, predict max) ms rounded to 6 places,
#: and samples sensed, copied from the deleted saturation benchmark record.
PAPER_SWEEP = {
    5.0: ((78.905909, 330.984181, 65.757626, 300.022055), 66),
    20.0: ((194.554429, 452.964637, 87.077419, 422.114837), 267),
    40.0: ((1631.407353, 2634.935431, 1273.806604, 2018.616934), 535),
}


@pytest.mark.parametrize(("name", "instrument"), sorted(TRACE_DIGESTS))
def test_chaos_trace_digest_matches_parent_commit(name, instrument):
    flags = {
        "plain": {},
        "observe": {"observe": True},
        "sampled": {"observe": True, "prepare": enable_observability},
        "profile": {"profile": True},
        "slo": {"slo": True},
    }[instrument]
    result = run_scenario(name, seed=0, **flags)
    assert (result.trace_digest, result.trace_records) == TRACE_DIGESTS[
        (name, instrument)
    ]


def test_failover_profile_digest_matches_parent_commit():
    profiler = run_scenario("failover", seed=0, profile=True).runtime.prof
    assert (profile_digest(profiler), profiler.events_profiled) == FAILOVER_PROFILE


def test_fig5_profile_digest_matches_parent_commit():
    profiler = run(FIG5, profile=True).runtime.prof
    assert (profile_digest(profiler), profiler.events_profiled) == FIG5_PROFILE


def test_fig5_observed_trace_digest_matches_parent_commit():
    tracer = run(FIG5, observe=True).runtime.tracer
    assert (trace_digest(tracer), len(tracer)) == FIG5_OBSERVED


@pytest.mark.parametrize("rate", sorted(PAPER_SWEEP))
def test_paper_sweep_latencies_match_parent_commit(rate):
    result = run_paper_experiment(rate, duration_s=2.5, seed=1, profile=True)
    latencies = tuple(
        round(value, 6)
        for value in (
            result.training.average,
            result.training.maximum,
            result.predicting.average,
            result.predicting.maximum,
        )
    )
    assert (latencies, result.samples_sensed) == PAPER_SWEEP[rate]
