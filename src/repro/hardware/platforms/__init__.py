"""Platform definitions: Lassen, Tioga, El Capitan-class and a generic
Intel machine."""

from repro.hardware.platforms.lassen import lassen_node_spec, make_lassen_node
from repro.hardware.platforms.tioga import tioga_node_spec, make_tioga_node
from repro.hardware.platforms.elcapitan import (
    elcapitan_node_spec,
    make_elcapitan_node,
)
from repro.hardware.platforms.generic import generic_node_spec, make_generic_node

PLATFORM_FACTORIES = {
    "lassen": make_lassen_node,
    "tioga": make_tioga_node,
    "elcapitan": make_elcapitan_node,
    "generic": make_generic_node,
}

#: Platforms whose GPUs are capped through NVML; only their factories
#: take ``nvml_failure_rate``.
NVML_PLATFORMS = frozenset({"lassen", "generic"})


def make_node(platform: str, hostname: str, **kwargs):
    """Construct a node of the named platform."""
    try:
        factory = PLATFORM_FACTORIES[platform]
    except KeyError:
        raise ValueError(
            f"unknown platform {platform!r}; choices: {sorted(PLATFORM_FACTORIES)}"
        ) from None
    return factory(hostname, **kwargs)


__all__ = [
    "lassen_node_spec",
    "make_lassen_node",
    "tioga_node_spec",
    "make_tioga_node",
    "elcapitan_node_spec",
    "make_elcapitan_node",
    "generic_node_spec",
    "make_generic_node",
    "make_node",
    "PLATFORM_FACTORIES",
    "NVML_PLATFORMS",
]
