"""Declarative scenarios and the differential conformance fuzzer.

One format for sweeps, fleet epochs, builds, fuzzing, and future
serving requests -- see ``docs/scenarios.md`` for the tour.
"""

from repro.scenario.spec import (
    DEFAULT_BUILD_SOFTWARE,
    DEFAULT_PACKET_SIZES,
    SCENARIO_KINDS,
    SCENARIO_VERSION,
    BuildSpec,
    EpochsSpec,
    Scenario,
    TenancySpec,
    WorkloadSpec,
    canonical_dumps,
    known_app_names,
    known_device_names,
    load_scenario,
    loads_scenario,
    require_app,
    require_app_name,
    require_device,
    save_scenario,
)

# The fuzzer reaches back into runtime/sim layers that are heavier than
# the spec itself; resolve its names lazily (PEP 562) so importing
# ``repro.scenario`` for a spec stays cheap.
_FUZZ_EXPORTS = frozenset({
    "DifferentialFuzzer",
    "FuzzFailure",
    "FuzzReport",
})


def __getattr__(name: str):
    if name in _FUZZ_EXPORTS:
        from repro.scenario import fuzz

        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_BUILD_SOFTWARE",
    "DEFAULT_PACKET_SIZES",
    "SCENARIO_KINDS",
    "SCENARIO_VERSION",
    "BuildSpec",
    "DifferentialFuzzer",
    "EpochsSpec",
    "FuzzFailure",
    "FuzzReport",
    "Scenario",
    "TenancySpec",
    "WorkloadSpec",
    "canonical_dumps",
    "known_app_names",
    "known_device_names",
    "load_scenario",
    "loads_scenario",
    "require_app",
    "require_app_name",
    "require_device",
    "save_scenario",
]
