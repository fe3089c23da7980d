import pytest

import gtrees.retract as rt
from gtrees.errors import InternalCheckError, PreconditionError
from gtrees.gaction import FiniteGroup, GSet
from gtrees.ggraph import GGraph, tree_with_trivial_group, validate
from gtrees.retract import (
    build_filtration,
    check_filtration,
    compress_to_U,
    d_T,
    eliminate_problematic,
    is_lower,
    make_state,
    paths_P,
    problematic,
    retract_tree,
)


def single_edge():
    return tree_with_trivial_group([(0, 1)])  # u=0, w=1


def crooked_path():
    """u-a-b-c path whose lowest-index edge is the far one, forcing a climb."""
    # vertices: u=0, a=1, b=2, c=3; edges listed so that (b,c) gets picked first
    return tree_with_trivial_group([(2, 3), (0, 1), (1, 2)])


def z2_mirror_tree():
    """Two arms swapped by an involution, hanging off a fixed path u - m."""
    g = FiniteGroup.cyclic(2)
    # vertices: u=0, m=1, a=2, a'=3
    vertices = GSet.from_generator_images(g, 4, [[0, 1, 3, 2]])
    edges = GSet.from_generator_images(g, 3, [[0, 2, 1]])
    # e0: u->m fixed; e1: m->a, e2: m->a' swapped
    return GGraph(vertices, edges, (0, 1, 1), (1, 2, 3))


def test_build_filtration_single_edge():
    t = single_edge()
    filt = build_filtration(t, {0})
    assert filt.vdeg == (0, 1)
    assert filt.edeg == (1,)
    assert filt.kappa == 2
    assert check_filtration(make_state(t, {0}, filt)) == []


def test_build_filtration_u_equals_v():
    t = tree_with_trivial_group([(0, 1), (1, 2)])
    filt = build_filtration(t, {0, 1, 2})
    assert filt.vdeg == (0, 0, 0)
    assert sorted(filt.edeg) == [1, 2]  # one orbit consumed per stage
    assert check_filtration(make_state(t, {0, 1, 2}, filt)) == []


def test_build_filtration_star_with_leaf_retract():
    # center c=0, leaves 1..3 form the retract
    t = tree_with_trivial_group([(0, 1), (0, 2), (0, 3)])
    filt = build_filtration(t, {1, 2, 3})
    assert filt.vdeg == (1, 0, 0, 0)
    assert filt.edeg[0] == 1
    assert check_filtration(make_state(t, {1, 2, 3}, filt)) == []


def test_build_filtration_requires_retract():
    g = FiniteGroup.cyclic(2)
    vertices = GSet.from_generator_images(g, 3, [[1, 0, 2]])
    edges = GSet.from_generator_images(g, 2, [[1, 0]])
    t = GGraph(vertices, edges, (0, 1), (2, 2))
    with pytest.raises(PreconditionError):
        build_filtration(t, {0, 1})  # the fixed center is outside: no stabilizer target


def test_build_filtration_equivariant_instance():
    t = z2_mirror_tree()
    filt = build_filtration(t, {0})
    assert check_filtration(make_state(t, {0}, filt)) == []
    assert filt.vdeg[2] == filt.vdeg[3]  # constant on orbits
    assert filt.edeg[1] == filt.edeg[2]


def test_check_filtration_reports_degrees_that_vary_on_an_orbit():
    # raise one arm of the mirror tree a level: each point of the swapped
    # vertex and edge orbits is reported, in point order
    t = z2_mirror_tree()
    filt = build_filtration(t, {0})
    vdeg, edeg = list(filt.vdeg), list(filt.edeg)
    vdeg[2] += 1
    edeg[1] += 1
    uneven = rt.Filtration(tuple(vdeg), tuple(edeg), filt.kappa + 1)
    assert check_filtration(make_state(t, {0}, uneven)) == [
        "(1) vertex degree not constant on the orbit of 2",
        "(1) vertex degree not constant on the orbit of 3",
        "(1) edge degree not constant on the orbit of 1",
        "(1) edge degree not constant on the orbit of 2",
    ]


def test_check_filtration_reports_levels_out_of_order_and_a_wrong_level_zero():
    # hand-made filtrations of the single edge 0 -> 1, each breaking one
    # condition: the edge placed below its far end, which also leaves 1 no
    # descent path; level zero larger than the retract; an edge at level zero
    t, F = single_edge(), rt.Filtration
    assert check_filtration(make_state(t, {0}, F((0, 2), (1,), 3))) == [
        "(1) edge 0 enters a level before both endpoints",
        "(4) no descent path from vertex 1",
    ]
    assert check_filtration(make_state(t, {0, 1}, F((0, 1), (1,), 2))) == ["(2) vertex level zero differs from the retract"]
    assert check_filtration(make_state(t, {0, 1}, F((0, 0), (0,), 1))) == ["(2) an edge has degree zero"]


def test_paths_P_single_edge():
    t = single_edge()
    state = make_state(t, {0})
    ps = paths_P(state, 1)
    assert len(ps) == 1
    assert ps[0].vertices == (1, 0)
    with pytest.raises(PreconditionError):
        paths_P(state, 0)


def test_paths_P_rejects_window_violations():
    t = crooked_path()
    state = make_state(t, {0})
    filt = state.filtration
    assert filt.edeg == (1, 2, 2) and filt.vdeg == (0, 2, 1, 1)
    # from c (level 1) the long route to u uses a level-1 and level-2 edges: ok;
    # from b only the two-step route through a qualifies, the rest are cut off
    ps_b = paths_P(state, 2)
    assert [p.vertices for p in ps_b] == [(2, 1, 0)]
    # every listed path respects the window
    for w in (1, 2, 3):
        for p in paths_P(state, w):
            for e, _ in p.steps:
                assert filt.edeg[e] in (filt.vdeg[w], filt.vdeg[w] + 1)


def test_condition4_regression_on_examples():
    for t, u in [
        (single_edge(), {0}),
        (crooked_path(), {0}),
        (z2_mirror_tree(), {0}),
        (tree_with_trivial_group([(0, 1), (0, 2), (0, 3)]), {1, 2, 3}),
    ]:
        filt = build_filtration(t, u)
        state = make_state(t, u, filt)
        for w in state.w_set:
            assert paths_P(state, w), (t, w)


def test_is_lower_examples():
    t = crooked_path()
    state = make_state(t, {0})
    # deg(a)=2 vs deg(b)=1: b is lower than a
    assert is_lower(state, 2, 1)
    assert not is_lower(state, 1, 2)
    # irreflexive
    for v in range(4):
        assert not is_lower(state, v, v)
    # same orbit, same degree: never lower (mirror instance)
    t2 = z2_mirror_tree()
    state2 = make_state(t2, {0})
    assert not is_lower(state2, 2, 3) and not is_lower(state2, 3, 2)


def test_problematic_empty_when_kappa_two():
    state = make_state(single_edge(), {0})
    assert problematic(state) == (frozenset(), frozenset())


def test_problematic_detects_forced_climb():
    state = make_state(crooked_path(), {0})
    bad_e, bad_v = problematic(state)
    assert bad_v == frozenset({2})  # b must climb through a
    assert 2 in bad_e  # the edge a-b sits one level above b


def test_eliminate_problematic_noop():
    state = make_state(single_edge(), {0})
    out = eliminate_problematic(state)
    assert out.tree == state.tree and out.move_log == ()


def test_eliminate_problematic_on_crooked_path():
    state = make_state(crooked_path(), {0})
    out = eliminate_problematic(state)
    assert problematic(out) == (frozenset(), frozenset())
    assert check_filtration(out) == []
    kinds = [m.kind for m in out.move_log]
    assert "slide" in kinds
    # this instance needs both temporary reorientations (the moved orbit and
    # a step edge traversed against its stored orientation)
    assert kinds.count("reorient") >= 2
    # the degree map never changes
    assert out.filtration == state.filtration


def test_eliminate_problematic_refuses_a_lower_level_after_a_slide(monkeypatch):
    # the first slide is at level 2, and vertex 1 sits at level 1: a
    # problematic that reports it after that slide must stop the worklist
    t = tree_with_trivial_group([(0, 1), (3, 4), (2, 3), (2, 0)])
    state = make_state(t, {0})
    assert state.filtration.vdeg == (0, 1, 3, 2, 2)
    assert problematic(state)[1] == frozenset({3})
    swept = []

    def lowered(state):
        swept.append(state)
        bad_e, bad_v = problematic(state)
        return bad_e, bad_v | {1} if len(swept) > 1 else bad_v

    monkeypatch.setattr(rt, "problematic", lowered)
    with pytest.raises(InternalCheckError, match="a lower level became problematic again"):
        eliminate_problematic(state)
    assert len(swept) == 2 and "slide" in [m.kind for m in swept[1].move_log]


def test_eliminate_problematic_refuses_a_slide_that_does_not_reduce(monkeypatch):
    monkeypatch.setattr(rt, "_problem_orbit_count", lambda state, level: 1)
    with pytest.raises(InternalCheckError, match="did not reduce"):
        eliminate_problematic(make_state(crooked_path(), {0}))


def test_compress_to_U_trivial_when_u_is_everything():
    t = tree_with_trivial_group([(0, 1), (1, 2)])
    state = make_state(t, {0, 1, 2})
    res = compress_to_U(state)
    assert res.tree.n_vertices == 3 and res.tree.n_edges == 2
    assert res.removed_edges == ()


def test_compress_to_U_single_edge():
    state = make_state(single_edge(), {0})
    res = compress_to_U(state)
    assert res.tree.n_vertices == 1 and res.tree.n_edges == 0
    assert res.tree.vertices.labels == (0,)
    assert res.bijection_by_label == {0: 1}


def test_compress_to_U_requires_no_problematic():
    state = make_state(crooked_path(), {0})
    with pytest.raises(PreconditionError):
        compress_to_U(state)


def test_compress_to_U_reports_a_refused_compress_as_internal(monkeypatch):
    # compress_to_U builds the edge set it compresses, so a compress that
    # refuses it is a fault of the pipeline and exits 4, not 3
    def refused(tree, keep):
        raise PreconditionError("component of vertex 1 has two sinks")

    monkeypatch.setattr(rt, "compress", refused)
    state = make_state(single_edge(), {0})
    with pytest.raises(InternalCheckError, match="two sinks"):
        compress_to_U(state)


def test_retract_tree_identity_case():
    t = tree_with_trivial_group([(0, 1), (1, 2)])
    res = retract_tree(t, {0, 1, 2})
    assert res.tree.n_vertices == 3
    assert res.move_log == () or all(m.kind != "slide" for m in res.move_log)
    assert res.removed_edges == ()


def test_retract_tree_trivial_group_any_retract():
    t = tree_with_trivial_group([(0, 1), (1, 2), (1, 3), (3, 4)])
    for u in ({0}, {2, 4}, {0, 3}, {1}):
        res = retract_tree(t, u)
        rep = validate(res.tree)
        assert rep.is_tree
        assert set(res.tree.vertices.labels) == u
        assert res.tree.n_edges == len(u) - 1
        assert len(res.removed_edges) == 5 - len(u)


def test_retract_tree_crooked_path_full_pipeline():
    res = retract_tree(crooked_path(), {0})
    assert res.tree.n_vertices == 1
    assert res.tree.vertices.labels == (0,)
    assert len(res.removed_edges) == 3
    kinds = [m.kind for m in res.move_log]
    assert "slide" in kinds and "compress" in kinds


def test_retract_tree_mirror_instance():
    t = z2_mirror_tree()
    res = retract_tree(t, {0})
    assert set(res.tree.vertices.labels) == {0}
    assert len(res.removed_edges) == 3
    # the pairing is equivariant: swapped edges pair with swapped vertices
    pair = res.removed_to_vertex
    ea, va = t.edges.act, t.vertices.act
    for g in t.group.elements:
        for e, w in pair.items():
            assert pair[ea[g][e]] == va[g][w]
    # finite edge stabilizers in, finite edge stabilizers out (regression guard)
    assert all(
        len(res.tree.edges.stabilizer(i)) <= t.group.order for i in range(res.tree.n_edges)
    )


def test_retract_tree_rejects_non_retract():
    g = FiniteGroup.cyclic(2)
    vertices = GSet.from_generator_images(g, 3, [[1, 0, 2]])
    edges = GSet.from_generator_images(g, 2, [[1, 0]])
    t = GGraph(vertices, edges, (0, 1), (2, 2))
    with pytest.raises(PreconditionError):
        retract_tree(t, {0, 1})


def test_filtration_invariant_within_orbit_levels():
    t = z2_mirror_tree()
    state = make_state(t, {0})
    for orb in t.vertices.orbits():
        for a in orb:
            for b in orb:
                if state.filtration.vdeg[a] == state.filtration.vdeg[b]:
                    assert not is_lower(state, a, b)


def test_d_T_is_orbit_invariant():
    t = z2_mirror_tree()
    state = make_state(t, {0})
    for w in state.w_set:
        for g in t.group.elements:
            assert d_T(state, w) == d_T(state, t.vertices.act[g][w])
