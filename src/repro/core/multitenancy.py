"""Multi-tenancy support (paper section 6).

"Harmonia utilizes the Ex-function in RBBs to achieve resource
isolation in the shell, while employing typical partial reconfiguration
techniques to enable multi-tenancy deployment in the role.  Moreover,
Harmonia provides multiple independent queues to isolate host software
belonging to different users."

This module adds the role-side piece: partial-reconfiguration slots
that host independent tenant roles, with resource-budgeted loading and
the decouple-reconfigure-enable sequence real PR flows use.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as _np

from repro.core.role import Role
from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.metrics.resources import ResourceBudget, ResourceUsage


class SlotState(enum.Enum):
    EMPTY = "empty"
    DECOUPLED = "decoupled"        # isolation asserted, ready to program
    PROGRAMMING = "programming"
    ACTIVE = "active"


@dataclass
class PrSlot:
    """One partial-reconfiguration region."""

    index: int
    budget: ResourceBudget
    state: SlotState = SlotState.EMPTY
    tenant: Optional[str] = None
    role: Optional[Role] = None
    reconfigurations: int = 0


class PartialReconfigManager:
    """Loads tenant roles into PR slots with budget and state checks."""

    def __init__(self, slot_budgets: List[ResourceBudget]) -> None:
        if not slot_budgets:
            raise ConfigurationError("need at least one PR slot")
        self.slots = [PrSlot(index, budget) for index, budget in enumerate(slot_budgets)]

    def slot(self, index: int) -> PrSlot:
        try:
            return self.slots[index]
        except IndexError:
            raise ConfigurationError(f"no PR slot {index}") from None

    def find_free_slot(self, usage: ResourceUsage) -> PrSlot:
        """The first empty slot the role fits in."""
        for slot in self.slots:
            if slot.state is not SlotState.EMPTY:
                continue
            try:
                slot.budget.check_fits(usage, design="tenant role")
            except ResourceExhaustedError:
                continue
            return slot
        raise ResourceExhaustedError("no free PR slot fits the role")

    def load(self, tenant: str, role: Role, slot_index: Optional[int] = None) -> PrSlot:
        """Decouple, program, and activate a tenant role."""
        if slot_index is None:
            slot = self.find_free_slot(role.resources)
        else:
            slot = self.slot(slot_index)
            if slot.state is not SlotState.EMPTY:
                raise ConfigurationError(
                    f"slot {slot.index} is {slot.state.value}, not empty"
                )
            slot.budget.check_fits(role.resources, design=role.name)
        # The PR sequence: decouple (isolate shell from the region),
        # program the partial bitstream, re-enable.
        slot.state = SlotState.DECOUPLED
        slot.state = SlotState.PROGRAMMING
        slot.tenant = tenant
        slot.role = role
        slot.reconfigurations += 1
        slot.state = SlotState.ACTIVE
        return slot

    def unload(self, slot_index: int) -> None:
        """Evict a tenant; the slot returns to empty."""
        slot = self.slot(slot_index)
        if slot.state is not SlotState.ACTIVE:
            raise ConfigurationError(f"slot {slot.index} has no active tenant")
        slot.state = SlotState.EMPTY
        slot.tenant = None
        slot.role = None

    def tenants(self) -> Dict[int, str]:
        """slot index -> tenant for every active slot."""
        return {
            slot.index: slot.tenant
            for slot in self.slots
            if slot.state is SlotState.ACTIVE and slot.tenant is not None
        }

    def active_count(self) -> int:
        return sum(1 for slot in self.slots if slot.state is SlotState.ACTIVE)


def residency_matrix(tenant_load, slots: int):
    """Which tenants keep their partial bitstream resident, per device.

    ``tenant_load`` is a ``(devices, tenants)`` array of offered load;
    on each device the ``slots`` heaviest tenants hold the PR slots
    (their roles stay programmed), everyone else pays a partial
    reconfiguration on arrival.  Returns a boolean mask of the same
    shape.  Ties break toward the lower tenant index (stable sort), so
    the residency plan is deterministic for a given load matrix.  This
    is the fleet-scale, vectorized companion to
    :class:`PartialReconfigManager`, which models one device's slots in
    full mechanical detail.
    """
    if slots < 1:
        raise ConfigurationError("need at least one slot")
    loads = _np.asarray(tenant_load, dtype=_np.float64)
    if loads.ndim != 2:
        raise ConfigurationError("tenant_load must be (devices, tenants)")
    tenants = loads.shape[1]
    if tenants <= slots:
        return _np.ones(loads.shape, dtype=bool)
    order = _np.argsort(-loads, axis=1, kind="stable")
    resident = _np.zeros(loads.shape, dtype=bool)
    _np.put_along_axis(resident, order[:, :slots], True, axis=1)
    return resident


def even_slot_budgets(total: ResourceBudget, slots: int,
                      role_fraction: float = 0.6) -> List[ResourceBudget]:
    """Split the role region of a device into equal PR slots.

    ``role_fraction`` is the share of the device left to roles after the
    shell; it is divided evenly among ``slots``.
    """
    if slots < 1:
        raise ConfigurationError("need at least one slot")
    if not 0.0 < role_fraction <= 1.0:
        raise ConfigurationError("role fraction must be in (0, 1]")
    share = role_fraction / slots
    return [
        ResourceBudget(
            lut=int(total.lut * share),
            ff=int(total.ff * share),
            bram_36k=int(total.bram_36k * share),
            uram=int(total.uram * share),
            dsp=int(total.dsp * share),
        )
        for _ in range(slots)
    ]
