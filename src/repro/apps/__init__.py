"""The five real-world cloud applications of the evaluation (Table 2)."""

from repro.apps.base import CloudApplication, PerformanceSample
from repro.apps.sec_gateway import SecGateway
from repro.apps.layer4_lb import Layer4LoadBalancer
from repro.apps.host_network import HostNetwork
from repro.apps.retrieval import RetrievalApp
from repro.apps.board_test import BoardTest

__all__ = [
    "BoardTest",
    "CloudApplication",
    "HostNetwork",
    "Layer4LoadBalancer",
    "PerformanceSample",
    "RetrievalApp",
    "all_applications",
    "application_by_name",
    "application_names",
]

#: The evaluation's application mix, in Table 2 order.  A type registry
#: rather than an instance list: some constructors are expensive
#: (RetrievalApp builds its embedding corpus), so name lookups must not
#: pay for applications they never asked for.
_APP_TYPES = (SecGateway, Layer4LoadBalancer, HostNetwork, RetrievalApp,
              BoardTest)


def all_applications():
    """Fresh instances of the application mix, in Table 2 order."""
    return [app_type() for app_type in _APP_TYPES]


def application_names():
    """The registered names, in Table 2 order, without constructing any."""
    return [app_type.name for app_type in _APP_TYPES]


def application_by_name(name: str) -> CloudApplication:
    """Look one application up by its registered name.

    Sweep points and scenarios name applications as plain strings, so
    the lookup lives here rather than in the CLI -- which shares this
    single path instead of keeping its own copy.  Only the named application is constructed.  Unknown
    names raise :class:`repro.errors.ConfigurationError` listing the
    valid names, the same loud contract the scenario spec uses
    everywhere.
    """
    for app_type in _APP_TYPES:
        if app_type.name == name:
            return app_type()
    from repro.errors import ConfigurationError

    known = ", ".join(application_names())
    raise ConfigurationError(f"unknown application {name!r}; known: {known}")
