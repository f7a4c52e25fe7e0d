"""The one run configuration: every stage reads its fields, the CLI derives
one flag per field, and every checkpoint and report echoes it."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ContractError

SCENARIO_ETA = {"warm_start": 0.0, "all_bundle": 0.3, "cold_start": 0.5}

# Largest eta accepted: stage 3 draws eta pseudo triples per real triple in
# every phase-two epoch, so its time and memory grow linearly with eta.
MAX_ETA = 10.0


def field_type(f: dataclasses.Field) -> type:
    """int, float or str: the type a field's annotation names, `| None` aside."""
    return {"int": int, "float": float}.get(f.type.removesuffix(" | None"), str)


@dataclass
class RunConfig:
    """Effective configuration; every field is overridable from the CLI."""
    scenario: str = "cold_start"
    seed: int = 0
    data_dir: str | None = None   # dense TSVs; omitted -> synthetic dataset
    synth_users: int = 400
    synth_items: int = 800
    synth_bundles: int = 200
    synth_groups: int = 4
    synth_bundle_size: int = 10
    synth_affinity: float = 0.3
    d: int = 64                   # embedding size
    K: int = 2                    # propagation depth
    T: int = 500                  # diffusion steps
    T_prime: int = 20             # strided sampling steps
    schedule: str = "linear"
    top_n: int = 5                # anchor neighborhood size
    d_c: int = 64                 # condition dimension
    d_time: int = 64
    eta: float | None = None      # pseudo-to-real triple ratio; None -> per-scenario default
    beta_alpha: float = 0.9
    stage1_lr: float = 0.05
    stage1_weight_decay: float = 1e-5
    stage1_epochs: int = 100
    stage1_patience: int = 15
    stage1_batch: int = 512
    cond_epochs: int = 30
    cond_lr: float = 0.05
    diff_epochs: int = 300
    diff_lr: float = 1e-3
    diff_batch: int = 128
    diff_hidden: int | None = None
    stage3_lr: float = 0.02
    stage3_epochs: int = 150
    stage3_batch: int = 4096
    k_eval: int = 20

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith(" | None"):
                continue
            typ = field_type(f)
            accepted = (int, float) if typ is float else typ
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ContractError(f"config field {f.name} must be {f.type}, got {value!r}")
        if self.scenario not in SCENARIO_ETA:
            raise ContractError(f"unknown scenario {self.scenario!r}")
        if self.schedule not in ("linear", "exp", "cosine"):
            raise ContractError(f"unknown schedule {self.schedule!r}")
        for name in ("d", "K", "T_prime", "top_n", "d_c", "d_time", "k_eval",
                     "stage1_batch", "diff_batch", "stage3_batch", "stage1_epochs",
                     "stage1_patience", "cond_epochs", "diff_epochs", "stage3_epochs",
                     "synth_bundle_size"):
            if getattr(self, name) < 1:
                raise ContractError(f"config field {name} must be >= 1")
        # The synthetic block model draws in-group edges with probability
        # synth_affinity and needs two groups to draw cross-group ones.
        if self.synth_groups < 2:
            raise ContractError("config field synth_groups must be >= 2")
        if not 0 < self.synth_affinity <= 1:
            raise ContractError("config field synth_affinity must be in (0, 1]")
        for name in ("stage1_lr", "cond_lr", "diff_lr", "stage3_lr", "stage1_weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ContractError(f"config field {name} must be finite and >= 0")
        if self.eta is not None and not 0 <= self.eta <= MAX_ETA:
            raise ContractError(f"eta must be in [0, {MAX_ETA:g}]")
        # What stage 2's noise schedule, strided sampler and sine-cosine
        # time embedding need.
        if self.T < 2:
            raise ContractError("config field T must be >= 2")
        if self.T_prime > self.T:
            raise ContractError("config field T_prime must be <= T")
        if self.d_time % 2:
            raise ContractError("config field d_time must be even")
        # Johnk's beta sampler accepts a draw with probability
        # G(a+1)^2 / G(2a+1): at least 1/2 for a <= 1, 1/184,756 at a = 10.
        if not 0 < self.beta_alpha <= 1:
            raise ContractError("beta_alpha must be in (0, 1]")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def effective_eta(self) -> float:
        return SCENARIO_ETA[self.scenario] if self.eta is None else self.eta
