"""Machine model: alpha-beta costs, traffic metering, hypercube topology."""

from .cost_model import MachineModel, DEFAULT_MACHINE
from .metrics import CollectiveEvent, TrafficMeter, TrafficReport
from .topology import (
    hypercube_dimension,
    partner,
    in_upper_half,
)

__all__ = [
    "MachineModel",
    "DEFAULT_MACHINE",
    "CollectiveEvent",
    "TrafficMeter",
    "TrafficReport",
    "hypercube_dimension",
    "partner",
    "in_upper_half",
]
