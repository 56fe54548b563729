"""Point keys are structural: equal keys must imply equal configurations.

Per-run caches (matchings, cocycle values, transported actions) are keyed
on `point_key`, so a key that two different points can share returns a
stale answer for the second one.
"""

import importlib
import inspect
import pkgutil

import orbitlab
from orbitlab import Configuration, quotient_normalize, sample
from orbitlab.actions import (BernoulliShift, CoinducedAction, SubgroupAlphabetAction,
                              TwistedCosetShift, rotation_action)
from orbitlab.groups import cyclic
from orbitlab.spaces import GroupIndex, Space
from orbitlab.words import ball, coset, cosets_ball, free_group

F2 = free_group("a", "b")


def test_equal_keys_imply_equal_values_over_transient_views():
    # Each view is dropped right after use, so its memory (and any
    # address-derived identity) is free for the next one.
    space = Space(GroupIndex(F2), cyclic(3))
    e = F2.identity()
    window = [F2.word("a^1"), F2.word("b^1"), F2.word("a^1 b^1")]
    seen = {}
    for i in range(200):
        view = quotient_normalize(sample(space, i), e)
        values = tuple(view.value(c) for c in window)
        assert seen.setdefault(view.point_key, values) == values, i
        del view


def _configuration_classes():
    for info in pkgutil.iter_modules(orbitlab.__path__):
        module = importlib.import_module(f"orbitlab.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Configuration) and cls.__module__ == module.__name__:
                yield cls


def test_every_concrete_configuration_defines_its_point_key():
    concrete = {f"{cls.__module__.split('.')[-1]}.{cls.__qualname__}": cls
                for cls in _configuration_classes()
                if cls is not Configuration and "value" in vars(cls)}
    assert set(concrete) == {
        "spaces.SeededConfiguration", "spaces.ExplicitConfiguration",
        "spaces.RecordingConfiguration", "actions._ShiftView",
        "actions._ValueTwistView", "constructions.IncrementView",
        "constructions.AxisView"}
    missing = [name for name, cls in concrete.items() if "point_key" not in vars(cls)]
    assert missing == []


def _shift_actions():
    """The three shift actions on (Z/3)^(<b>\\F2); the two co-induced ones
    differ only in their inner permutation."""
    reverse = SubgroupAlphabetAction(F2, "b", cyclic(3), gen_perm=(2, 0, 1))
    return [BernoulliShift(F2, cyclic(3), subgroup="b"),
            TwistedCosetShift(F2, "b", 3),
            CoinducedAction(F2, "b", rotation_action(F2, "b", 3)),
            CoinducedAction(F2, "b", reverse)]


def test_coinduced_keys_carry_the_inner_action():
    *_, rotate, reverse = _shift_actions()
    x = sample(rotate.space, 3)
    b = F2.generator("b")
    base = coset(F2, "b", F2.identity())
    assert rotate.apply(b, x).value(base) != reverse.apply(b, x).value(base)
    assert rotate.apply(b, x).point_key != reverse.apply(b, x).point_key


def test_equal_keys_imply_equal_values_over_shift_views():
    # every action reads the same seeded points, whose keys do not name a space
    window = cosets_ball(F2, "b", 2)
    seen = {}
    for action in _shift_actions():
        for seed in range(3):
            x = sample(action.space, seed)
            for g in ball(F2, 2):
                view = action.apply(g, x)
                values = tuple(view.value(c) for c in window)
                assert seen.setdefault(view.point_key, values) == values, (g, seed)
