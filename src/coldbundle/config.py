"""The one run configuration: every stage reads its fields, the CLI derives
one flag per field, and every checkpoint and report echoes it."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ContractError

SCENARIO_ETA = {"warm_start": 0.0, "all_bundle": 0.3, "cold_start": 0.5}


@dataclass(frozen=True)
class Bound:
    """The interval lo..hi with each end closed ('[', ']') or open ('(', ')')
    as `ends` says, or else the set `choices`."""
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[)"
    choices: tuple[str, ...] = ()

    def admits(self, value) -> bool:
        if self.choices:
            return value in self.choices
        above = self.lo < value if self.ends[0] == "(" else self.lo <= value
        below = value < self.hi if self.ends[1] == ")" else value <= self.hi
        return above and below

    def __str__(self) -> str:
        if self.choices:
            return "{" + ", ".join(self.choices) + "}"
        return f"{self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"


def _with(default, bound: Bound):
    return dataclasses.field(default=default, metadata={"bound": bound})


def field_bound(f: dataclasses.Field) -> Bound | None:
    return f.metadata.get("bound")


def field_type(f: dataclasses.Field) -> type:
    """int, float or str: the type a field's annotation names, `| None` aside."""
    return {"int": int, "float": float}.get(f.type.removesuffix(" | None"), str)


COUNT = Bound(1)       # sizes, steps, epochs and batches
RATE = Bound(0)        # learning rates and weight decay: finite and >= 0
UNIT = Bound(0, 1, "(]")


@dataclass
class RunConfig:
    """Effective configuration; every field is overridable from the CLI."""
    scenario: str = _with("cold_start", Bound(choices=tuple(SCENARIO_ETA)))
    seed: int = 0
    data_dir: str | None = None   # dense TSVs; omitted -> synthetic dataset
    synth_users: int = _with(400, COUNT)
    synth_items: int = _with(800, COUNT)
    synth_bundles: int = _with(200, COUNT)
    # The synthetic block model draws in-group edges with probability
    # synth_affinity and needs two groups to draw cross-group ones.
    synth_groups: int = _with(4, Bound(2))
    synth_bundle_size: int = _with(10, COUNT)
    synth_affinity: float = _with(0.3, UNIT)
    d: int = _with(64, COUNT)                # embedding size
    K: int = _with(2, COUNT)                 # propagation depth
    # The noise schedule and the strided sampler need two diffusion steps.
    T: int = _with(500, Bound(2))
    T_prime: int = _with(20, COUNT)          # strided sampling steps
    schedule: str = _with("linear", Bound(choices=("linear", "exp", "cosine")))
    top_n: int = _with(5, COUNT)             # anchor neighborhood size
    d_c: int = _with(64, COUNT)              # condition dimension
    d_time: int = _with(64, COUNT)
    # Pseudo-to-real triple ratio; None -> per-scenario default. Stage 3's
    # time and memory per phase-two epoch grow linearly with it.
    eta: float | None = _with(None, Bound(0, 10, "[]"))
    # Johnk's beta sampler accepts a draw with probability
    # G(a+1)^2 / G(2a+1): at least 1/2 for a <= 1, 1/184,756 at a = 10.
    beta_alpha: float = _with(0.9, UNIT)
    stage1_lr: float = _with(0.05, RATE)
    stage1_weight_decay: float = _with(1e-5, RATE)
    stage1_epochs: int = _with(100, COUNT)
    stage1_patience: int = _with(15, COUNT)
    stage1_batch: int = _with(512, COUNT)
    cond_epochs: int = _with(30, COUNT)
    cond_lr: float = _with(0.05, RATE)
    diff_epochs: int = _with(300, COUNT)
    diff_lr: float = _with(1e-3, RATE)
    diff_batch: int = _with(128, COUNT)
    diff_hidden: int | None = _with(None, COUNT)   # None -> 4 * d
    stage3_lr: float = _with(0.02, RATE)
    stage3_epochs: int = _with(150, COUNT)
    stage3_batch: int = _with(4096, COUNT)
    k_eval: int = _with(20, COUNT)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith(" | None"):
                continue
            typ = field_type(f)
            accepted = (int, float) if typ is float else typ
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ContractError(f"config field {f.name} must be {f.type}, got {value!r}")
            bound = field_bound(f)
            if bound is not None and not bound.admits(value):
                raise ContractError(f"config field {f.name} must be in {bound}, got {value!r}")
        if self.T_prime > self.T:
            raise ContractError("config field T_prime must be <= T")
        # The sine-cosine time embedding has d_time / 2 columns of each.
        if self.d_time % 2:
            raise ContractError("config field d_time must be even")

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
