"""Element-wise reference forms of the group-action checks, kept only as
differential test oracles:

- equivariance of a map between G-sets, checked for every group element
  (the form before `gtrees.gaction.non_equivariant` checked the generators);
- the action law (gh)p = g(hp), checked for every pair of elements (the form
  before `GSet.validate` checked it for generators g).
"""


def oracle_is_equivariant(source, target, f):
    """Whether f(g p) = g f(p) for every element g and every point p where f
    is defined: f is a sequence over all points of source, or a dict, which
    then must also hold g p among its keys."""
    items = list(f.items()) if isinstance(f, dict) else list(enumerate(f))
    lookup = dict(items).get
    return all(
        lookup(source.act[g][p]) == target.act[g][fp] for g in source.group.elements for p, fp in items
    )


def oracle_action_is_homomorphism(s):
    """Whether act[gh][p] = act[g][act[h][p]] for all elements g, h and points p."""
    mult, act = s.group.mult, s.act
    return all(
        act[mult[g][h]][p] == act[g][act[h][p]]
        for g in s.group.elements
        for h in s.group.elements
        for p in range(s.size)
    )
