"""Verification report records: named checks with target, computed value,
tolerance, and a three-way status.

``discrepancy-flag`` is reserved for places where the paper's printed value
or claim conflicts with its own formulas; those items never fail a run,
they surface the conflict.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

from . import __version__

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy-flag"


@dataclass(frozen=True)
class VerificationItem:
    name: str
    target: float
    computed: float
    tolerance: float
    status: str


def make_item(
    name: str,
    target: float,
    computed: float,
    tolerance: float,
    flag_on_fail: bool = False,
) -> VerificationItem:
    """Status is derived, never hand-assigned: pass iff |computed - target|
    <= tolerance; a miss becomes discrepancy-flag when the miss is a known
    paper-vs-formula conflict (flag_on_fail)."""
    ok = abs(computed - target) <= tolerance
    status = PASS if ok else (DISCREPANCY if flag_on_fail else FAIL)
    return VerificationItem(name, float(target), float(computed), float(tolerance), status)


def flag_item(name: str, target: float, computed: float, tolerance: float) -> VerificationItem:
    return make_item(name, target, computed, tolerance, flag_on_fail=True)


def _timestamp() -> str:
    # honor SOURCE_DATE_EPOCH so identical inputs can produce byte-identical
    # reports (reproducible-build convention)
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


@dataclass
class VerificationReport:
    items: list[VerificationItem]
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(cls, items: list[VerificationItem]) -> "VerificationReport":
        return cls(items=list(items), meta={"version": __version__, "timestamp": _timestamp()})

    @property
    def failed(self) -> list[VerificationItem]:
        return [it for it in self.items if it.status == FAIL]

    @property
    def flagged(self) -> list[VerificationItem]:
        return [it for it in self.items if it.status == DISCREPANCY]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        width = max((len(it.name) for it in self.items), default=10)
        for it in self.items:
            lines.append(
                f"{it.status.upper():16s} {it.name:{width}s} "
                f"computed={it.computed:.12g} target={it.target:.12g} tol={it.tolerance:.3g}"
            )
        n_fail = len(self.failed)
        n_flag = len(self.flagged)
        lines.append(
            f"summary: {len(self.items)} items, {len(self.items) - n_fail - n_flag} pass, "
            f"{n_fail} fail, {n_flag} discrepancy-flag"
        )
        return "\n".join(lines) + "\n"
