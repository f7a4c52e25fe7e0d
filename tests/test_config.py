"""RunConfig: the type and bound checks admit every value they should, and
refuse every other one naming its field."""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from coldbundle.config import RunConfig, field_bound, field_type
from coldbundle.errors import ContractError

FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def test_annotated_types_accepted():
    cfg = RunConfig(eta=1, synth_affinity=1, diff_hidden=None, data_dir=None)
    assert cfg.effective_eta == 1
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_bounds_admit_their_edges():
    cfg = RunConfig(stage1_batch=1, diff_batch=1, stage3_batch=1, eta=0.0, beta_alpha=1.0,
                    stage1_lr=0.0, cond_lr=0, diff_lr=0.0, stage3_lr=0.0, stage1_weight_decay=0.0)
    assert dataclasses.replace(cfg, eta=None).effective_eta == 0.5
    assert RunConfig(eta=10).effective_eta == 10
    edge = RunConfig(T=2, T_prime=2, d_time=2)
    assert (edge.T, edge.T_prime, edge.d_time) == (2, 2, 2)
    RunConfig(stage1_epochs=1, stage1_patience=1, cond_epochs=1, diff_epochs=1,
              stage3_epochs=1, synth_bundle_size=1, synth_groups=2, synth_affinity=1)
    assert RunConfig(synth_affinity=5e-324).synth_affinity > 0


def test_every_numeric_field_but_seed_declares_a_bound():
    unbounded = [f.name for f in FIELDS.values()
                 if field_type(f) is not str and field_bound(f) is None]
    assert unbounded == ["seed"]


def _step(typ, x, toward):
    """The next value of type typ after x in the direction of toward."""
    return math.nextafter(x, toward) if typ is float else x + (1 if toward > x else -1)


def _edges(f) -> list:
    """(value, inside the bound) for each finite end of f's bound and the
    values one step inside and outside it; for a set, each choice and two
    strings outside it."""
    bound, typ = field_bound(f), field_type(f)
    if bound is None:
        return []
    if bound.choices:
        return [(c, True) for c in bound.choices] + [("nope", False), ("", False)]
    cases = []
    for end, closed, outward in ((bound.lo, bound.ends[0] == "[", -math.inf),
                                 (bound.hi, bound.ends[1] == "]", math.inf)):
        if math.isfinite(end):
            cases += [(typ(end), closed), (int(end), closed),
                      (_step(typ, typ(end), outward), False),
                      (_step(typ, typ(end), -outward), True)]
    return cases


def _wrong_types(f) -> list:
    typ = field_type(f)
    if typ is int:
        return ["3", 1.5, 2.0, True, False, [1]]
    if typ is float:
        return ["0.5", True, False, [0.5]]
    return [3, 1.5, True, False, ["x"]]


def _draws(f):
    """(value, inside) draws at random inside and outside f's bound."""
    bound, typ = field_bound(f), field_type(f)
    if bound is None:
        return (st.integers() if typ is int else st.text()).map(lambda v: (v, True))
    if bound.choices:
        return st.one_of(st.sampled_from(bound.choices).map(lambda v: (v, True)),
                         st.text().filter(lambda v: v not in bound.choices)
                         .map(lambda v: (v, False)))
    lo = bound.lo if bound.ends[0] == "[" else _step(typ, bound.lo, math.inf)
    hi = bound.hi if bound.ends[1] == "]" else _step(typ, bound.hi, -math.inf)
    below = _step(typ, lo, -math.inf)
    if typ is int:
        inside = st.integers(min_value=lo)
        outside = st.integers(max_value=below)
    else:
        inside = st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)
        outside = st.floats(max_value=below, allow_infinity=False)
        if math.isfinite(bound.hi):
            above = st.floats(min_value=_step(typ, hi, math.inf), allow_nan=False,
                              allow_infinity=False)
            outside = st.one_of(outside, above)
    return st.one_of(inside.map(lambda v: (v, True)), outside.map(lambda v: (v, False)))


def _values(f):
    """Edges, random draws, non-finite floats, None and wrong types for f."""
    fixed = _edges(f) + [(v, False) for v in _wrong_types(f)]
    fixed.append((None, f.type.endswith(" | None")))
    if field_type(f) is float:
        # No float field admits a non-finite value.
        fixed += [(math.nan, False), (math.inf, False), (-math.inf, False)]
    return st.one_of(st.sampled_from(fixed), _draws(f))


def _cross_field_ok(name, value) -> bool:
    """The rules that span fields, every other field at its default."""
    if name == "T_prime":
        return value <= FIELDS["T"].default
    return name != "d_time" or value % 2 == 0


def _check(name, value, inside):
    kwargs = {name: value}
    if name == "T":
        kwargs["T_prime"] = 1   # T's own bound, not T_prime <= T, decides
    admitted = inside and _cross_field_ok(name, value)
    try:
        RunConfig(**kwargs)
    except ContractError as exc:
        assert not admitted, f"{name}={value!r} refused: {exc}"
        assert f"config field {name} must" in str(exc)
    else:
        assert admitted, f"{name}={value!r} admitted"


def test_every_declared_edge():
    for f in FIELDS.values():
        for value, inside in _edges(f):
            _check(f.name, value, inside)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(FIELDS))
       .flatmap(lambda name: st.tuples(st.just(name), _values(FIELDS[name]))))
def test_config_admits_exactly_its_declared_bounds(case):
    name, (value, inside) = case
    _check(name, value, inside)
