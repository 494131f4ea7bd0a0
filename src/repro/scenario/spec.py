"""The unified declarative Scenario spec.

Every execution tier of the reproduction used to invent its own
configuration shape: sweeps had :class:`repro.runtime.sweep.SweepPlan`,
the fleet simulator had :class:`repro.runtime.fleet.FleetSpec`, the
build farm had :class:`repro.runtime.buildfarm.BuildPlan`, and the CLI
re-plumbed each through a divergent argparse block.  A
:class:`Scenario` describes all of them in one versioned, canonically
serialisable place:

* **what** runs -- ``kind`` (``sweep`` / ``fleet`` / ``build``) plus the
  ``apps`` and ``devices`` axes;
* **how** it runs -- the :class:`WorkloadSpec` (packet sizes and counts,
  Harmonia vs native datapath, tracing), the execution ``engine`` tier,
  and the deterministic ``seed``;
* **who shares** the hardware -- the :class:`TenancySpec` (flows,
  tenants, PR slots, Zipf skew, offered load) and the fleet ``year``;
* **how it is built** -- the :class:`BuildSpec` (CAD effort, packaged
  host software).

Serialisation is *canonical*: :meth:`Scenario.canonical_json` routes
through :func:`repro.adapters.toolchain.canonical_json` (sorted keys,
minimal separators, the strict JSON value model), so equal scenarios
produce equal bytes regardless of field order in the source file, and
:meth:`Scenario.scenario_id` is the sha256 of those bytes **minus the
engine field** -- the vector kernel is pinned to exact equality against
the scalar DES path, so the execution tier is configuration, not
identity (see ``docs/performance.md``).

Validation is loud: every malformed field, unknown key, unknown
application/device/engine name, or unsupported version raises
:class:`repro.errors.ConfigurationError` naming the valid choices.

The existing layers consume scenarios rather than duplicating them:
``SweepPlan.expand()`` delegates to :meth:`Scenario.expand_points`,
``FleetSpec.from_scenario`` / ``BuildPlan.from_scenario`` construct the
tier-native specs, and ``repro.cli sweep/fleet/build --scenario`` load
one file through :func:`load_scenario`.  The differential conformance
fuzzer (:mod:`repro.scenario.fuzz`) generates random valid scenarios
and cross-checks every tier against this one source of truth.
"""

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.profiler import phase
from repro.sim.vector import ENGINES

#: Bump when the serialised layout changes incompatibly.
SCENARIO_VERSION = 1

#: The execution tiers a scenario can drive.
SCENARIO_KINDS: Tuple[str, ...] = ("sweep", "fleet", "build")

#: Paper sweep of Figure 17/18 (mirrors ``repro.runtime.sweep``).
DEFAULT_PACKET_SIZES: Tuple[int, ...] = (64, 128, 256, 512, 1024)

#: Host-software bundle packaged by default builds.  Pinned equal to
#: ``repro.runtime.buildfarm.DEFAULT_SOFTWARE`` by a test; duplicated
#: here so importing the spec never drags the build farm in.
DEFAULT_BUILD_SOFTWARE: Tuple[str, ...] = ("driver", "runtime-lib", "health-agent")


# ---------------------------------------------------------------------------
# Name registries (loud lookups shared by the CLI, the spec, the fuzzer)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def known_app_names() -> Tuple[str, ...]:
    """Registered application names, in Table 2 order."""
    from repro.apps import application_names

    return tuple(application_names())


@functools.lru_cache(maxsize=1)
def known_device_names() -> Tuple[str, ...]:
    """Catalog device names, sorted."""
    from repro.platform.catalog import all_devices

    return tuple(sorted(device.name for device in all_devices()))


def require_app_name(name: str) -> str:
    """Application-name check without constructing anything; loud."""
    if name not in known_app_names():
        raise ConfigurationError(
            f"unknown application {name!r}; known: "
            f"{', '.join(known_app_names())}"
        )
    return name


def require_app(name: str):
    """Application-name lookup that fails loudly and consistently.

    Returns the application instance; an unknown name raises
    :class:`ConfigurationError` listing every valid name.
    """
    from repro.apps import application_by_name

    return application_by_name(require_app_name(name))


def require_device(name: str, variants: bool = False):
    """Device-name lookup that fails loudly and consistently.

    Returns the catalog device; with ``variants=True`` fleet-history
    revision/speed-grade names resolve to their base type (the build
    farm's contract).  An unknown name raises
    :class:`ConfigurationError` listing the catalog.
    """
    from repro.platform.catalog import device_by_name, resolve_device

    try:
        return resolve_device(name) if variants else device_by_name(name)
    except KeyError:
        raise ConfigurationError(
            f"unknown device {name!r}; known: "
            f"{', '.join(known_device_names())}"
        ) from None


def require_engine(name: str) -> str:
    """Engine-name check; returns the name or raises listing the tiers."""
    if name not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {name!r}; known: {', '.join(ENGINES)}"
        )
    return name


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def canonical_dumps(value: Any) -> str:
    """Canonical JSON text of ``value`` (one encoder for the whole tree).

    Delegates to :func:`repro.adapters.toolchain.canonical_json`: sorted
    keys, minimal separators, ``allow_nan=False``, and a loud
    :class:`ConfigurationError` on anything outside the JSON value
    model -- the same encoder the build farm hashes with, so scenario
    identity and build identity can never drift apart.
    """
    from repro.adapters.toolchain import canonical_json

    return canonical_json(value)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path} must be an integer, got {value!r}")
    return value


def _expect_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path} must be a number, got {value!r}")
    return float(value)


def _expect_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{path} must be a boolean, got {value!r}")
    return value


def _expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{path} must be a string, got {value!r}")
    return value


def _expect_str_tuple(value: Any, path: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{path} must be a list of strings, got {value!r}")
    return tuple(_expect_str(item, f"{path}[{index}]")
                 for index, item in enumerate(value))


def _expect_int_tuple(value: Any, path: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{path} must be a list of integers, got {value!r}")
    return tuple(_expect_int(item, f"{path}[{index}]")
                 for index, item in enumerate(value))


def _reject_unknown_keys(data: Mapping[str, Any], allowed: Tuple[str, ...],
                         where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {where} field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """The packet-sweep workload axis of a scenario."""

    packet_sizes: Tuple[int, ...] = DEFAULT_PACKET_SIZES
    packets_per_point: int = 2_000
    with_harmonia: bool = True
    include_path_latency: bool = True
    trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "packet_sizes", tuple(self.packet_sizes))
        _expect(len(self.packet_sizes) > 0,
                "workload needs at least one packet size")
        for size in self.packet_sizes:
            _expect(isinstance(size, int) and not isinstance(size, bool)
                    and size >= 1,
                    f"packet sizes must be integers >= 1, got {size!r}")
        _expect(self.packets_per_point >= 1, "packets_per_point must be >= 1")

    def to_json(self) -> Dict[str, Any]:
        return {
            "packet_sizes": list(self.packet_sizes),
            "packets_per_point": self.packets_per_point,
            "with_harmonia": self.with_harmonia,
            "include_path_latency": self.include_path_latency,
            "trace": self.trace,
        }

    _FIELDS = ("packet_sizes", "packets_per_point", "with_harmonia",
               "include_path_latency", "trace")

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _expect(isinstance(data, Mapping), "workload must be an object")
        _reject_unknown_keys(data, cls._FIELDS, "workload")
        kwargs: Dict[str, Any] = {}
        if "packet_sizes" in data:
            kwargs["packet_sizes"] = _expect_int_tuple(
                data["packet_sizes"], "workload.packet_sizes")
        if "packets_per_point" in data:
            kwargs["packets_per_point"] = _expect_int(
                data["packets_per_point"], "workload.packets_per_point")
        for key in ("with_harmonia", "include_path_latency", "trace"):
            if key in data:
                kwargs[key] = _expect_bool(data[key], f"workload.{key}")
        return cls(**kwargs)


@dataclass(frozen=True)
class TenancySpec:
    """The fleet-sharing axis of a scenario.

    Field meanings and validation mirror
    :class:`repro.runtime.fleet.FleetSpec` (whose ``seed`` and ``year``
    live at the scenario's top level, shared with the other kinds).
    """

    flow_count: int = 1_000_000
    device_count: int = 1_024
    tenant_count: int = 16
    slots_per_device: int = 4
    alpha: float = 1.05
    offered_load: float = 0.65
    mean_packet_bytes: int = 512

    def __post_init__(self) -> None:
        _expect(self.flow_count >= 1, "need at least one flow")
        _expect(self.device_count >= 1, "need at least one device instance")
        _expect(self.tenant_count >= 1, "need at least one tenant")
        _expect(self.slots_per_device >= 1,
                "need at least one PR slot per device")
        _expect(self.alpha > 0, "Zipf alpha must be positive")
        _expect(self.offered_load > 0, "offered load must be positive")
        _expect(self.mean_packet_bytes >= 1, "mean packet size must be positive")

    def to_json(self) -> Dict[str, Any]:
        return {
            "flow_count": self.flow_count,
            "device_count": self.device_count,
            "tenant_count": self.tenant_count,
            "slots_per_device": self.slots_per_device,
            "alpha": self.alpha,
            "offered_load": self.offered_load,
            "mean_packet_bytes": self.mean_packet_bytes,
        }

    _FIELDS = ("flow_count", "device_count", "tenant_count",
               "slots_per_device", "alpha", "offered_load",
               "mean_packet_bytes")

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "TenancySpec":
        _expect(isinstance(data, Mapping), "tenancy must be an object")
        _reject_unknown_keys(data, cls._FIELDS, "tenancy")
        kwargs: Dict[str, Any] = {}
        for key in ("flow_count", "device_count", "tenant_count",
                    "slots_per_device", "mean_packet_bytes"):
            if key in data:
                kwargs[key] = _expect_int(data[key], f"tenancy.{key}")
        for key in ("alpha", "offered_load"):
            if key in data:
                kwargs[key] = _expect_number(data[key], f"tenancy.{key}")
        return cls(**kwargs)


@dataclass(frozen=True)
class BuildSpec:
    """The build-farm axis of a scenario."""

    effort: int = 0
    software: Tuple[str, ...] = DEFAULT_BUILD_SOFTWARE

    def __post_init__(self) -> None:
        object.__setattr__(self, "software", tuple(self.software))
        _expect(self.effort >= 0, "build effort must be >= 0")

    def to_json(self) -> Dict[str, Any]:
        return {"effort": self.effort, "software": list(self.software)}

    _FIELDS = ("effort", "software")

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "BuildSpec":
        _expect(isinstance(data, Mapping), "build must be an object")
        _reject_unknown_keys(data, cls._FIELDS, "build")
        kwargs: Dict[str, Any] = {}
        if "effort" in data:
            kwargs["effort"] = _expect_int(data["effort"], "build.effort")
        if "software" in data:
            kwargs["software"] = _expect_str_tuple(data["software"],
                                                   "build.software")
        return cls(**kwargs)


@dataclass(frozen=True)
class EpochsSpec:
    """The epoch-stepped orchestration axis of a fleet scenario.

    Optional: a fleet scenario without this section is the one-shot
    snapshot simulator; with it, ``repro.cli fleet --epochs`` (or the
    service layer) advances the fleet through churned epochs via
    :class:`repro.runtime.orchestrator.Orchestrator`.  Field meanings
    and validation mirror
    :class:`repro.runtime.orchestrator.OrchestratorSpec`.

    Unlike ``engine``, this section **is** part of scenario identity
    when present -- orchestration changes what is computed, not how.
    Scenarios without it serialise exactly as before (the key is
    omitted), so every pre-existing scenario id is preserved.
    """

    epochs: int = 288
    epoch_seconds: int = 300
    churn: float = 0.01
    failure_every: int = 48
    drain_every: int = 96
    migrate_threshold: float = 1.2
    autoscale: bool = True
    spare_fraction: float = 0.25
    scale_step: int = 4
    pr_budget: int = 64
    policy: str = "flow-hash"

    def __post_init__(self) -> None:
        _expect(self.epochs >= 1, "need at least one epoch")
        _expect(self.epoch_seconds >= 1, "epoch length must be positive")
        _expect(0.0 <= self.churn <= 0.5, "churn must be within [0, 0.5]")
        _expect(self.failure_every >= 0,
                "failure cadence must be non-negative (0 disables)")
        _expect(self.drain_every >= 0,
                "drain cadence must be non-negative (0 disables)")
        _expect(self.migrate_threshold > 0,
                "migrate threshold must be positive")
        _expect(0.0 <= self.spare_fraction <= 4.0,
                "spare fraction must be within [0, 4]")
        _expect(self.scale_step >= 1, "scale step must be positive")
        _expect(self.pr_budget >= 0, "PR budget must be non-negative")
        from repro.runtime.fleet import POLICIES
        _expect(self.policy in POLICIES,
                f"unknown policy {self.policy!r}; "
                f"choose from {', '.join(POLICIES)}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "epochs": self.epochs,
            "epoch_seconds": self.epoch_seconds,
            "churn": self.churn,
            "failure_every": self.failure_every,
            "drain_every": self.drain_every,
            "migrate_threshold": self.migrate_threshold,
            "autoscale": self.autoscale,
            "spare_fraction": self.spare_fraction,
            "scale_step": self.scale_step,
            "pr_budget": self.pr_budget,
            "policy": self.policy,
        }

    _FIELDS = ("epochs", "epoch_seconds", "churn", "failure_every",
               "drain_every", "migrate_threshold", "autoscale",
               "spare_fraction", "scale_step", "pr_budget", "policy")

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "EpochsSpec":
        _expect(isinstance(data, Mapping), "epochs must be an object")
        _reject_unknown_keys(data, cls._FIELDS, "epochs")
        kwargs: Dict[str, Any] = {}
        for key in ("epochs", "epoch_seconds", "failure_every",
                    "drain_every", "scale_step", "pr_budget"):
            if key in data:
                kwargs[key] = _expect_int(data[key], f"epochs.{key}")
        for key in ("churn", "migrate_threshold", "spare_fraction"):
            if key in data:
                kwargs[key] = _expect_number(data[key], f"epochs.{key}")
        if "autoscale" in data:
            kwargs["autoscale"] = _expect_bool(data["autoscale"],
                                               "epochs.autoscale")
        if "policy" in data:
            kwargs["policy"] = _expect_str(data["policy"], "epochs.policy")
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One declarative, versioned description of a run.

    A scenario is *pure configuration*: two equal scenarios produce
    byte-identical results, traces, and manifests on either engine, at
    any build-farm worker count.  The ``engine`` field selects the
    vector kernel or the DES oracle loop but is excluded from
    :meth:`scenario_id` -- the two are pinned exactly equal, so they
    cannot be part of identity.
    """

    kind: str
    apps: Tuple[str, ...] = ()
    devices: Tuple[str, ...] = ()
    engine: str = "auto"
    seed: int = 2_025
    year: int = 2_024
    workload: WorkloadSpec = WorkloadSpec()
    tenancy: TenancySpec = TenancySpec()
    build: BuildSpec = BuildSpec()
    epochs: Optional[EpochsSpec] = None
    version: int = SCENARIO_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", tuple(self.apps))
        object.__setattr__(self, "devices", tuple(self.devices))
        if self.version != SCENARIO_VERSION:
            raise ConfigurationError(
                f"unsupported scenario version {self.version!r}; this "
                f"build understands version {SCENARIO_VERSION}"
            )
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; known: "
                f"{', '.join(SCENARIO_KINDS)}"
            )
        require_engine(self.engine)
        _expect_int(self.seed, "seed")
        _expect_int(self.year, "year")
        for name in self.apps:
            _expect_str(name, "apps[]")
        for name in self.devices:
            _expect_str(name, "devices[]")
        if self.kind == "sweep" and (not self.apps or not self.devices):
            raise ConfigurationError(
                "a sweep scenario needs at least one app and one device")
        if self.epochs is not None and self.kind != "fleet":
            raise ConfigurationError(
                "the epochs section only applies to fleet scenarios; "
                f"this scenario is kind {self.kind!r}"
            )

    # --- identity and serialisation ------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The scenario as a plain JSON-compatible dict.

        The ``epochs`` key appears only when the section is present, so
        scenarios without orchestration serialise byte-for-byte as they
        always did -- existing scenario ids are stable.
        """
        payload: Dict[str, Any] = {
            "version": self.version,
            "kind": self.kind,
            "apps": list(self.apps),
            "devices": list(self.devices),
            "engine": self.engine,
            "seed": self.seed,
            "year": self.year,
            "workload": self.workload.to_json(),
            "tenancy": self.tenancy.to_json(),
            "build": self.build.to_json(),
        }
        if self.epochs is not None:
            payload["epochs"] = self.epochs.to_json()
        return payload

    def canonical_json(self) -> str:
        """Canonical bytes: equal scenarios -> equal text, any field order."""
        return canonical_dumps(self.to_json())

    def scenario_id(self) -> str:
        """sha256 identity of the scenario's content, **excluding engine**.

        The cache, the vector kernel and the DES oracle loop are pinned
        to exact equality, so the engine choice changes how a scenario
        runs, never what it computes -- like ``SweepPoint.engine``, it
        stays out of every content key (see ``docs/performance.md``).
        Computed once per object.
        """
        scenario_id = self.__dict__.get("_scenario_id")
        if scenario_id is None:
            with phase("scenario.id"):
                payload = self.to_json()
                del payload["engine"]
                scenario_id = hashlib.sha256(
                    canonical_dumps(payload).encode("utf-8")).hexdigest()
            # Frozen and built from immutable parts: the id never changes.
            object.__setattr__(self, "_scenario_id", scenario_id)
        return scenario_id

    _FIELDS = ("version", "kind", "apps", "devices", "engine", "seed",
               "year", "workload", "tenancy", "build", "epochs")

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Scenario":
        """Parse and validate one scenario dict (any key order).

        Unknown keys, malformed values, unsupported versions, and
        unknown app/device/engine names all raise
        :class:`ConfigurationError` naming the valid alternatives.
        """
        with phase("scenario.validate"):
            if not isinstance(data, Mapping):
                raise ConfigurationError(
                    f"a scenario must be a JSON object, got "
                    f"{type(data).__name__}")
            _reject_unknown_keys(data, cls._FIELDS, "scenario")
            if "kind" not in data:
                raise ConfigurationError(
                    f"scenario is missing 'kind'; known kinds: "
                    f"{', '.join(SCENARIO_KINDS)}"
                )
            kwargs: Dict[str, Any] = {
                "kind": _expect_str(data["kind"], "kind")}
            if "version" in data:
                kwargs["version"] = _expect_int(data["version"], "version")
            if "apps" in data:
                kwargs["apps"] = _expect_str_tuple(data["apps"], "apps")
            if "devices" in data:
                kwargs["devices"] = _expect_str_tuple(data["devices"],
                                                      "devices")
            if "engine" in data:
                kwargs["engine"] = _expect_str(data["engine"], "engine")
            if "seed" in data:
                kwargs["seed"] = _expect_int(data["seed"], "seed")
            if "year" in data:
                kwargs["year"] = _expect_int(data["year"], "year")
            if "workload" in data:
                kwargs["workload"] = WorkloadSpec.from_json(data["workload"])
            if "tenancy" in data:
                kwargs["tenancy"] = TenancySpec.from_json(data["tenancy"])
            if "build" in data:
                kwargs["build"] = BuildSpec.from_json(data["build"])
            if "epochs" in data and data["epochs"] is not None:
                kwargs["epochs"] = EpochsSpec.from_json(data["epochs"])
            scenario = cls(**kwargs)
            scenario.validate_names()
            return scenario

    def validate_names(self) -> "Scenario":
        """Check every app/device name against the registries; loud."""
        for name in self.apps:
            require_app_name(name)
        variants = self.kind == "build"
        for name in self.devices:
            require_device(name, variants=variants)
        return self

    def replace(self, **changes: Any) -> "Scenario":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    # --- conversions into the tier-native specs ------------------------

    def _require_kind(self, kind: str) -> None:
        if self.kind != kind:
            raise ConfigurationError(
                f"scenario kind {self.kind!r} cannot drive {kind!r}; "
                f"write a scenario with \"kind\": \"{kind}\""
            )

    def sweep_plan(self):
        """This scenario as a :class:`repro.runtime.sweep.SweepPlan`."""
        self._require_kind("sweep")
        from repro.runtime.sweep import SweepPlan

        return SweepPlan.from_scenario(self)

    def expand_points(self) -> List[Any]:
        """Sweep expansion: the single source of point order.

        Every consumer -- ``SweepPlan.expand()``, the runner, the
        fuzzer -- sees points in this canonical (app, device, size)
        order, with the scenario's engine applied to each point.
        """
        self._require_kind("sweep")
        from repro.runtime.sweep import SweepPoint

        workload = self.workload
        return [
            SweepPoint(
                app=app, device=device, packet_size_bytes=size,
                packet_count=workload.packets_per_point,
                with_harmonia=workload.with_harmonia,
                trace=workload.trace, engine=self.engine,
            )
            for app in self.apps
            for device in self.devices
            for size in workload.packet_sizes
        ]

    def fleet_spec(self):
        """This scenario as a :class:`repro.runtime.fleet.FleetSpec`."""
        self._require_kind("fleet")
        from repro.runtime.fleet import FleetSpec

        return FleetSpec.from_scenario(self)

    def orchestrator_spec(self):
        """This scenario's ``epochs`` section as an
        :class:`repro.runtime.orchestrator.OrchestratorSpec`."""
        self._require_kind("fleet")
        if self.epochs is None:
            raise ConfigurationError(
                "this fleet scenario has no epochs section to orchestrate")
        from repro.runtime.orchestrator import OrchestratorSpec

        return OrchestratorSpec.from_scenario(self)

    def build_plan(self):
        """This scenario as a :class:`repro.runtime.buildfarm.BuildPlan`."""
        self._require_kind("build")
        from repro.runtime.buildfarm import BuildPlan

        return BuildPlan.from_scenario(self)


# ---------------------------------------------------------------------------
# File I/O (the one loader every CLI subcommand shares)
# ---------------------------------------------------------------------------

def loads_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario JSON text; loud on syntax and content errors."""
    try:
        data = json.loads(text)
    except ValueError as error:
        raise ConfigurationError(
            f"{source} is not a scenario file (invalid JSON: {error})"
        ) from None
    return Scenario.from_json(data)


def load_scenario(path: str) -> Scenario:
    """Load one scenario from a JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ConfigurationError(f"scenario file not found: {path}") from None
    return loads_scenario(text, source=path)


def save_scenario(scenario: Scenario, path: str) -> str:
    """Write ``scenario`` as canonical JSON; returns the canonical text."""
    text = scenario.canonical_json()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")
    return text
