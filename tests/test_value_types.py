"""The value types' contract: read-only fields, which fields equality and
hashing see, the `Name(field=...)` repr of the records and the read-only
classes, and the documented mutants of the example fixture."""

import copy
import hashlib
import inspect
import json
import pickle

import pytest

from gtrees._frozen import Frozen
from gtrees.counterexample import Check, default_data, documented_mutations
from gtrees.gaction import FiniteGroup, GSet
from gtrees.ggraph import GPath, GGraph, _mark_tree, tree_with_trivial_group
from gtrees.retract import Filtration, Move, make_state, problematic
from gtrees.words import XY, Alphabet, parse_word

# sha256 of the six mutants' to_json() documents, keyed by mutant name
MUTANTS_DIGEST = "3e4115a368226c3d6d9a391f3cc95af335a3e8a518643d959255ac1a677aca64"


def path_tree() -> GGraph:
    return tree_with_trivial_group([(0, 1), (1, 2)])


def frozen_cases():
    tree = path_tree()
    return [
        (Alphabet.of("x", "y"), "names", ("a",)),
        (FiniteGroup.cyclic(3), "identity", 1),
        (FiniteGroup.cyclic(3), "inverse", ()),
        (GSet.regular(FiniteGroup.cyclic(3)), "labels", (5, 6, 7)),
        (tree, "tau", (0, 0)),
        (make_state(tree, [0]), "u_set", frozenset()),
        (make_state(tree, [0]), "w_set", frozenset()),
        (GPath((0, 1), ((0, 1),)), "steps", ()),
        (Move("slide", {}, "a", "b"), "kind", "reorient"),
        (Filtration((0, 1), (1,), 2), "kappa", 3),
    ]


@pytest.mark.parametrize("index", range(len(frozen_cases())))
def test_assigning_a_field_raises_attribute_error(index):
    value, name, new = frozen_cases()[index]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, new)
    assert getattr(value, name) == before


@pytest.mark.parametrize("index", range(len(frozen_cases())))
def test_deleting_a_field_raises_attribute_error(index):
    value, name, _ = frozen_cases()[index]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == before


@pytest.mark.parametrize("index", range(len(frozen_cases())))
def test_read_only_values_copy_and_pickle(index):
    value = frozen_cases()[index][0]
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and type(clone) is type(value)


def test_a_word_pickles_with_its_alphabet():
    word = parse_word(XY, "x^2y")
    assert pickle.loads(pickle.dumps(word)) == word


def test_finite_group_equality_ignores_inverse_and_gen_words():
    g = FiniteGroup.cyclic(4)
    bare = FiniteGroup(g.mult, g.identity, g.generators)
    assert bare.inverse == () and bare.gen_words == ()
    assert bare == g and hash(bare) == hash(g)
    assert FiniteGroup(g.mult, g.identity, (3,)) != g


def test_gset_equality_ignores_caches_filled_on_one_side():
    group = FiniteGroup.dihedral(4)
    filled = GSet.regular(group)
    fresh = GSet(filled.group, filled.act, filled.labels)
    filled.stabilizers()
    filled.orbit_ids()
    assert filled == fresh and hash(filled) == hash(fresh)
    assert GSet(group, filled.act, tuple(range(1, group.order + 1))) != filled


def test_ggraph_equality_ignores_the_tree_verdict():
    marked = _mark_tree(path_tree())
    clone = copy.copy(marked)
    assert marked._is_tree and not clone._is_tree
    assert marked == clone and hash(marked) == hash(clone)


def test_retract_state_equality_ignores_kept_searches():
    swept = make_state(path_tree(), [0])
    problematic(swept)
    fresh = make_state(path_tree(), [0])
    assert swept._paths and swept._problematic is not None
    assert not fresh._paths and fresh._problematic is None
    assert swept == fresh and hash(swept) == hash(fresh)


def test_every_frozen_class_lists_its_constructor_arguments():
    classes = Frozen.__subclasses__()
    assert {cls.__name__ for cls in classes} == {"Alphabet", "FiniteGroup", "GSet", "GGraph", "RetractState"}
    for cls in classes:
        assert list(cls._fields) == list(inspect.signature(cls.__init__).parameters)[1:], cls.__name__


def test_equal_alphabets_hash_equal():
    a, b = Alphabet.of("x", "y"), Alphabet(("x", "y"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, Alphabet.of("y", "x")}) == 2


def test_record_reprs_name_their_fields():
    assert repr(GPath((0, 1), ((0, 1),))) == "GPath(vertices=(0, 1), steps=((0, 1),))"
    assert repr(Move("slide", {"e": 0}, "a", "b")) == "Move(kind='slide', detail={'e': 0}, pre='a', post='b')"


def test_read_only_value_reprs_name_their_fields():
    trivial = "FiniteGroup(mult=((0,),), identity=0, generators=(0,), inverse=(0,), gen_words=((),))"
    vertices = f"GSet(group={trivial}, act=((0, 1),), labels=(0, 1))"
    edges = f"GSet(group={trivial}, act=((0,),), labels=(0,))"
    tree = f"GGraph(vertices={vertices}, edges={edges}, iota=(0,), tau=(1,))"
    edge = tree_with_trivial_group([(0, 1)])
    assert repr(Alphabet.of("x", "y")) == "Alphabet(names=('x', 'y'))"
    assert repr(FiniteGroup.trivial()) == trivial
    assert repr(edge.vertices) == vertices and repr(edge.edges) == edges
    assert repr(edge) == tree
    assert repr(make_state(edge, [0])) == (
        f"RetractState(tree={tree}, filtration=Filtration(vdeg=(0, 1), edeg=(1,), kappa=2), "
        "u_set=frozenset({0}), move_log=())"
    )


def test_a_check_equals_the_tuple_of_its_fields():
    check = Check("wordlength", 0, 3, 3, True)
    assert check == ("wordlength", 0, 3, 3, True, "")
    assert repr(check) == "Check(name='wordlength', n=0, expected=3, computed=3, passed=True, note='')"


def test_documented_mutations_are_pinned():
    docs = {name: data.to_json() for name, data in documented_mutations(default_data()).items()}
    assert list(docs) == [
        "relator-x-image", "relator-y-image", "relator-base-rhs",
        "subgroup-ge-generator", "subgroup-gw-generator", "incidence-tau-f",
    ]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == MUTANTS_DIGEST
