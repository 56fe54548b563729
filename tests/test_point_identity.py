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
from orbitlab.groups import cyclic
from orbitlab.spaces import GroupIndex, Space
from orbitlab.words import free_group

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
    concrete = [cls for cls in _configuration_classes()
                if cls is not Configuration and "value" in vars(cls)]
    assert len(concrete) >= 9
    missing = [cls.__qualname__ for cls in concrete if "point_key" not in vars(cls)]
    assert missing == []
