"""The paper's two testbeds and the scenarios declared on them.

The paper's evaluation system: six Raspberry Pi neuron modules on one
wireless LAN plus a management laptop. Modules A-C generate sensor data at
a fixed rate; module D runs the Mosquitto broker; module E subscribes to
all three sensor flows, aggregates them into ``[data]`` batches, and
trains; module F does the same but predicts (Fig. 9). The Fig. 5 "start
watching" cluster is the application-level counterpart. Each builder is
what a :class:`~repro.scenario.Scenario` (``PAPER``, ``FIG5``) points at.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.bench.calibration import (
    BROKER_QUEUE_LIMIT,
    PI_QUEUE_LIMIT,
    pi_cost_model,
    pi_wlan_config,
)
from repro.core.dsl import parse_recipe
from repro.core.middleware import Application, IFoTCluster
from repro.core.recipe import Recipe, TaskSpec
from repro.runtime.costs import NULL_COST_MODEL, CostModel
from repro.runtime.sim import SimRuntime
from repro.scenario import PrepareHook, Scenario, attach_instruments
from repro.sensors import (
    AccelerometerModel,
    AlertActuator,
    CameraModel,
    EnvironmentSensorModel,
    EventSchedule,
    SensorModel,
)
from repro.sensors.devices import FixedPayloadModel

__all__ = [
    "PaperTestbed",
    "build_paper_testbed",
    "build_paper_recipe",
    "paper_scenario",
    "PAPER",
    "FIG5_RECIPE_PATH",
    "build_fig5_testbed",
    "FIG5",
]

#: Module names of Fig. 7 (the management node is created by the cluster).
SENSOR_MODULES = ("module-a", "module-b", "module-c")
BROKER_MODULE = "module-d"
TRAIN_MODULE = "module-e"
PREDICT_MODULE = "module-f"


def paper_devices() -> dict[str, SensorModel]:
    """The devices every sensor module (A-C) of the paper testbed carries."""
    return {"sample": FixedPayloadModel(values=3)}


@dataclass
class PaperTestbed:
    """A ready-to-run instance of the paper's evaluation system."""

    runtime: SimRuntime
    cluster: IFoTCluster
    rate_hz: float

    def submit(self) -> Application:
        """Deploy the experiment recipe (Fig. 9 class wiring)."""
        return self.cluster.submit(build_paper_recipe(self.rate_hz))


def build_paper_testbed(
    rate_hz: float,
    seed: int = 0,
    trace: bool = False,
    broker_cpu_speed: float = 1.0,
    prepare: PrepareHook | None = None,
) -> PaperTestbed:
    """Construct the six-Pi testbed at sensing rate ``rate_hz``.

    ``trace=False`` keeps the full event trace off (taps still fire), which
    is what the benchmark harness wants for long runs. ``broker_cpu_speed``
    scales module D's CPU (the broker-placement ablation moves the broker
    onto laptop-class hardware by raising it). ``prepare`` runs on the
    bare runtime before any component exists.
    """
    runtime = SimRuntime(
        seed=seed,
        wlan_config=pi_wlan_config(),
        cost_model=pi_cost_model(),
    )
    runtime.tracer.enabled = trace
    if prepare is not None:
        prepare(runtime)
    # The broker runs ON module D, a Raspberry Pi (Fig. 9) — its routing
    # work shares that Pi's CPU and bounded queue.
    cluster = IFoTCluster(
        runtime,
        broker_node_name=BROKER_MODULE,
        broker_kwargs={
            "queue_limit": BROKER_QUEUE_LIMIT,
            "cpu_speed": broker_cpu_speed,
        },
        # The management node is a laptop (Core i5): much faster.
        node_kwargs={"cpu_speed": 8.0},
    )
    for name in SENSOR_MODULES:
        module = cluster.add_module(name, queue_limit=PI_QUEUE_LIMIT)
        for device, model in paper_devices().items():
            module.attach_sensor(device, model)
    cluster.add_module(TRAIN_MODULE, queue_limit=PI_QUEUE_LIMIT)
    cluster.add_module(PREDICT_MODULE, queue_limit=PI_QUEUE_LIMIT)
    # Let MQTT sessions, announcements and heartbeats settle before use.
    cluster.settle(2.0)
    return PaperTestbed(runtime=runtime, cluster=cluster, rate_hz=rate_hz)


def build_paper_recipe(rate_hz: float, qos: int = 0) -> Recipe:
    """The experiment's task graph (Fig. 9).

    Sensor classes on modules A-C publish ``raw-*`` flows; modules E and F
    each run a subscribe-side aligner producing ``[data]`` batches feeding
    their Train / Predict class. Training and predicting are independent
    paths, exactly as in the paper's two measured processes.
    """
    align_params = {"mode": "align", "sources": list(SENSOR_MODULES), "qos": qos}
    tasks = [
        TaskSpec(
            f"sense-{name[-1]}",
            "sensor",
            outputs=[f"raw-{name[-1]}"],
            params={"device": "sample", "rate_hz": rate_hz, "qos": qos},
            pin_to=name,
            capabilities=["sensor:sample"],
        )
        for name in SENSOR_MODULES
    ]
    raw_streams = [f"raw-{name[-1]}" for name in SENSOR_MODULES]
    tasks += [
        TaskSpec(
            "gather-train",
            "window",
            inputs=list(raw_streams),
            outputs=["batch-train"],
            params=dict(align_params),
            pin_to=TRAIN_MODULE,
        ),
        TaskSpec(
            "train",
            "train",
            inputs=["batch-train"],
            params={"model": "classifier", "label_key": "label", "emit_info": False},
            pin_to=TRAIN_MODULE,
            # Sensing-to-trained budget at the reference 5 Hz operating
            # point (`repro lint --recipe paper --deadline`); the static
            # bound there is ~2.3 s, dominated by the align-window round.
            deadline_ms=3000,
        ),
        TaskSpec(
            "gather-predict",
            "window",
            inputs=list(raw_streams),
            outputs=["batch-predict"],
            params=dict(align_params),
            pin_to=PREDICT_MODULE,
        ),
        TaskSpec(
            "predict",
            "predict",
            inputs=["batch-predict"],
            params={
                "model": "classifier",
                "label_key": "label",
                "train_on_stream": True,
            },
            pin_to=PREDICT_MODULE,
            # Sensing-to-scored budget at the reference 5 Hz operating
            # point (static bound ~1.7 s; see `train` above).
            deadline_ms=2500,
        ),
    ]
    return Recipe("paper-exp", tasks)


def paper_scenario(
    rate_hz: float = 5.0, qos: int = 0, broker_cpu_speed: float = 1.0
) -> Scenario:
    """The Fig. 7/9 experiment at one operating point.

    The registered ``paper`` scenario is the 5 Hz reference point the
    lint gate and the declared deadlines assume; the rate sweep and the
    QoS / broker-placement ablations are variants built here.
    """

    def build(seed: int, prepare: PrepareHook | None) -> tuple[SimRuntime, IFoTCluster]:
        testbed = build_paper_testbed(
            rate_hz, seed=seed, broker_cpu_speed=broker_cpu_speed, prepare=prepare
        )
        return testbed.runtime, testbed.cluster

    return Scenario(
        name="paper",
        description=f"the paper's Fig. 7/9 six-Pi testbed at {rate_hz:g} Hz",
        build=build,
        recipe=lambda: build_paper_recipe(rate_hz, qos=qos),
        recipe_origin=f"<built-in paper recipe @ {rate_hz:g} Hz>",
        devices=paper_devices,
        # The calibration the testbed itself runs under.
        lint={"cost_model": pi_cost_model(), "wlan": pi_wlan_config()},
        seed=0,
        duration_s=2.5,
        at_rate=lambda rate: paper_scenario(rate, qos, broker_cpu_speed),
    )


PAPER = paper_scenario()


# ---------------------------------------------------------------------------
# Fig. 5 "start watching" testbed
# ---------------------------------------------------------------------------

FIG5_RECIPE_PATH = (
    Path(__file__).resolve().parents[3] / "examples" / "recipes" / "fig5_watching.recipe"
)

#: The planted fall event driving the Fig. 5 scenario.
FIG5_FALL_AT = 20.0
FIG5_FALL_LEN = 2.0

#: Fig. 5 sensors: device -> (hosting module, model over the event schedule).
FIG5_SENSORS = {
    "accel-wrist": ("pi-wrist", AccelerometerModel),
    "accel-waist": ("pi-waist", lambda events: AccelerometerModel(events, sway_sigma=0.06)),
    "environment": ("pi-room", EnvironmentSensorModel),
    "camera": ("pi-room", CameraModel),
}


def fig5_devices() -> dict[str, SensorModel]:
    events = EventSchedule()
    return {device: model(events) for device, (_host, model) in FIG5_SENSORS.items()}


def build_fig5_testbed(
    seed: int = 55,
    observe: bool = False,
    prepare: PrepareHook | None = None,
    cost_model: CostModel = NULL_COST_MODEL,
) -> tuple[SimRuntime, IFoTCluster]:
    """The Fig. 5 cluster: wrist/waist accelerometers, room sensors +
    camera, an analysis module and a pager, with a fall planted at t=20 s.

    ``prepare`` runs on the bare runtime before any component exists (the
    schedule sanitizer installs its kernel monitor / tie-break
    perturbation there); with ``observe=True`` flow tracing and metrics
    go on at the same point, so the span trees cover the whole run.
    ``cost_model`` defaults to the historical zero-cost model — the
    golden-trace digests fingerprint that build — while the ``fig5``
    scenario declares the Pi calibration.
    """
    events = EventSchedule()
    events.add(FIG5_FALL_AT, FIG5_FALL_LEN, "fall", intensity=1.2)
    runtime = SimRuntime(seed=seed, cost_model=cost_model)
    if prepare is not None:
        prepare(runtime)
    attach_instruments(runtime, observe=observe)
    cluster = IFoTCluster(runtime)
    for device, (host, model) in FIG5_SENSORS.items():
        if host not in cluster.modules:
            cluster.add_module(host)
        cluster.module(host).attach_sensor(device, model(events))
    cluster.add_module("pi-analysis")
    pager_module = cluster.add_module("pi-pager")
    pager_module.attach_actuator("pager", AlertActuator())
    cluster.settle(2.0)
    return runtime, cluster


FIG5 = Scenario(
    name="fig5",
    description="the Fig. 5 watching experiment (fall at t=20 s), Pi calibration",
    # The Pi cost model on the default WLAN: what the declared deadlines
    # and the drift and soundness gates assume.
    build=lambda seed, prepare: build_fig5_testbed(
        seed, prepare=prepare, cost_model=pi_cost_model()
    ),
    recipe=lambda: parse_recipe(FIG5_RECIPE_PATH.read_text()),
    recipe_origin=str(FIG5_RECIPE_PATH),
    devices=fig5_devices,
    lint={"cost_model": pi_cost_model()},
    seed=55,
    duration_s=30.0,
    attach="runtime",
)
