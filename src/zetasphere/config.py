"""Plain key=value run configuration.

Search order: explicit --config flag, then the ZETASPHERE_CONFIG environment
variable; command-line flags override file values.  Unknown keys are
rejected so typos surface instead of silently using defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import DomainError
from .report import config_digest

ENV_VAR = "ZETASPHERE_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    scan_step: float = 0.25

    def digest(self) -> str:
        return config_digest({f.name: getattr(self, f.name) for f in fields(self)})


def parse_config_text(text: str) -> dict:
    known = {f.name for f in fields(RunConfig)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise DomainError(f"config line {lineno}: bad value for {key}: {value!r}") from exc
    return out


def load_config(path: str | None = None) -> RunConfig:
    cfg = RunConfig()
    chosen = path or os.environ.get(ENV_VAR)
    if chosen:
        with open(chosen, encoding="utf-8") as fh:
            cfg = replace(cfg, **parse_config_text(fh.read()))
    return cfg
