import pytest

from orbitlab.groups import (FiniteGroup, GroupTableError, cyclic, klein_four,
                             load_group_table, s3)


def test_cyclic_two_table():
    z2 = cyclic(2)
    assert z2.table == ((0, 1), (1, 0))
    assert z2.identity == 0
    assert z2.inv(1) == 1


def test_non_associative_table_names_triple():
    # 2-element magma with a*a = a is not a group (no inverse for b under e=a)
    with pytest.raises(GroupTableError) as err:
        FiniteGroup(["x", "y", "z"], [[0, 1, 2], [1, 2, 2], [2, 2, 0]])
    assert "associative" in str(err.value) or "inverse" in str(err.value) \
        or "identity" in str(err.value)


def test_missing_identity_reported():
    with pytest.raises(GroupTableError, match="identity"):
        FiniteGroup(["x", "y"], [[0, 0], [0, 0]])


def test_s3_structure():
    g = s3()
    assert g.size == 6
    assert sum(1 for a in range(6) if g.element_order(a) == 2) == 3
    assert sum(1 for a in range(6) if g.element_order(a) == 3) == 2


def test_klein_four_all_involutions():
    v = klein_four()
    assert all(v.element_order(a) in (1, 2) for a in range(4))


def test_load_group_table_document():
    doc = {"name": "Z3", "elements": ["0", "1", "2"],
           "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    g = load_group_table(doc)
    assert g.mul(1, 2) == 0
    with pytest.raises(GroupTableError, match="missing field"):
        load_group_table({"elements": ["0"]})


def test_load_group_table_refuses_a_document_that_is_not_a_mapping():
    # a string would otherwise meet the field checks as substring tests
    text = '{"elements": ["e"], "table": [[0]]}'
    for document in (text, [["e"]], None):
        with pytest.raises(GroupTableError, match="must be a mapping"):
            load_group_table(document)
